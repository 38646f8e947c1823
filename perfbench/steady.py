#!/usr/bin/env python3
"""Steadiness check for perfbench.

Run each workload repeatedly with a different seed per run and print, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median) next to the metric's bound in BENCHMARK.json,
plus the attempted and failed operation counts:

    python3 perfbench/steady.py run --runs 10 --out set1.json
    python3 perfbench/steady.py run --runs 5 --workloads paper_mix

Compare two saved sets the way a regression gate would: for every
workload and metric, is the second median worse than the first by more
than the bound, and is the share of failed operations identical?

    python3 perfbench/steady.py compare set1.json set2.json

Run from the root of a checkout; exits 1 when a spread or a comparison is
outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec, results):
    """Prints the table; returns False when a spread exceeds its bound."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in results.items():
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"attempted={attempted}, failed={failed}")
        ok &= correct
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if len(values) != len(runs):
                print(f"  {name:24} missing in {len(runs) - len(values)} runs")
                ok = False
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            gated = name != "setup_s"
            flag = "" if not gated or spread <= bounds[name] else "  OVER"
            if not gated and spread > bounds[name]:
                flag = "  (not gated)"
            ok &= not flag.strip().startswith("OVER")
            print(f"  {name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{flag}")
    return ok


def compare(spec, first, second):
    ok = True
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in first:
        a, b = first[workload], second.get(workload, [])
        if not b:
            print(f"{workload}: missing from the second set")
            ok = False
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"\n{workload}: failed share {share_a:.6g} vs {share_b:.6g}"
              f"{'' if share_a == share_b else '  DIFFERS'}")
        ok &= share_a == share_b
        for name in sorted(bounds):
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if better[name] == "lower" else \
                (ma - mb) / ma
            flag = "  WORSE" if worse > bounds[name] else ""
            ok &= not flag
            print(f"  {name:24} {ma:14.6g} {mb:14.6g} worse by {worse:+.3f} "
                  f"(bound {bounds[name]:.2f}){flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", default="")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    spec = load_spec()

    if args.mode == "compare":
        with open(args.first) as f, open(args.second) as g:
            return 0 if compare(spec, json.load(f), json.load(g)) else 1

    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    results = {}
    for workload in names:
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            results[workload].append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed} done", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
