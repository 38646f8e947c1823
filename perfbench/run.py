#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py \
        --workload ingest_ooo|dashboard_read|paper_mix|paper_mix_read \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (CMake, Release) goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, and is reused
by later runs; its output goes to stderr. Data files live under the build
directory for the length of the run; the span dump of a traced run is kept
in <build>/traces/. The last line of stdout is the run's JSON result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def quiet(cmd):
    """Runs a build step; its output reaches stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(out):
    """Configures once, then builds the perfbench target (serialised)."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest_ooo", "dashboard_read", "paper_mix",
                                 "paper_mix_read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1

    run_dir = os.path.join(out, f"run-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            timeout=RUN_TIMEOUT_S)
        if args.trace and proc.returncode == 0:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            name = f"trace-{args.workload}.spans.tsv"
            src = os.path.join(run_dir, name)
            if os.path.exists(src):
                shutil.move(src, os.path.join(traces, name))
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
