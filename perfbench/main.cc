// perfbench: one run of one workload.
//
//   perfbench --workload ingest_ooo|dashboard_read|paper_mix|paper_mix_read
//             --seed N --seconds S --trace 0|1 --dir DIR
//
// --trace 0 prints the end-to-end metrics of one pass (five set-ups, one
// timed window of S seconds). --trace 1 runs the workload twice for S/2
// seconds each, untraced then traced, and prints the per-layer metrics of
// the traced pass plus the tracing overhead on every end-to-end metric.
// The last stdout line is the JSON result; earlier lines report the
// configuration, per-operation counts and any oracle mismatch. DIR holds
// the data directories and the span dump; the program refuses to start
// when any BACKSORT_* variable is set, since those resize or re-enable
// engine features behind the pinned options.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench.h"

extern char** environ;

namespace perfbench {

backsort::EngineOptions PinnedEngineOptions(const std::string& dir,
                                            bool compaction) {
  backsort::EngineOptions e;
  e.data_dir = dir;
  e.sorter = backsort::SorterId::kBackward;
  e.backward_options = backsort::BackwardSortOptions{};
  e.memtable_flush_threshold = 100'000;
  e.points_per_page = 1024;
  e.footer_stats = true;
  e.shard_count = 4;
  e.flush_workers = 2;
  e.flush_parallelism = 1;
  e.async_flush = true;
  e.enable_wal = true;
  e.sync_wal_every_write = false;
  e.wal_fsync = false;
  e.replication_log = false;
  e.chunk_cache_bytes = backsort::EngineOptions::kDefaultChunkCacheBytes;
  e.enable_file_pruning = true;
  e.dedup_on_query = true;
  e.compaction_enabled = compaction;
  e.compaction_max_fanin = 8;
  e.compaction_tier_ratio = 4.0;
  e.compaction_trigger_files = 4;
  e.compaction_check_interval_ms = 250;
  return e;
}

backsort::ServerOptions PinnedServerOptions() {
  backsort::ServerOptions s;
  s.host = "127.0.0.1";
  s.port = 0;
  s.event_loops = 1;
  s.workers = 2;
  s.max_connections = 64;
  s.max_inflight_requests = 64;
  s.max_inflight_bytes = 64u << 20;
  s.max_frame_bytes = 16u << 20;
  s.max_pipeline_depth = 32;
  s.conn_recv_timeout_ms = 0;
  s.conn_send_timeout_ms = 10'000;
  return s;
}

backsort::ClientOptions PinnedClientOptions() {
  backsort::ClientOptions c;
  c.connect_timeout_ms = 5'000;
  c.request_timeout_ms = 30'000;
  c.max_retries = 0;  // an Overloaded shed is a failed operation
  c.backoff_initial_ms = 10;
  c.backoff_jitter = 0.5;
  return c;
}

std::string DescribeConfig(const backsort::EngineOptions& e,
                           const backsort::ServerOptions& s,
                           const backsort::ClientOptions& c) {
  char buf[1400];
  std::snprintf(
      buf, sizeof(buf),
      "{\"engine\": {\"sorter\": \"%s\", \"theta\": %g, \"l0\": %zu, "
      "\"memtable_flush_threshold\": %zu, \"points_per_page\": %zu, "
      "\"footer_stats\": %d, \"shard_count\": %zu, \"flush_workers\": %zu, "
      "\"flush_parallelism\": %zu, \"async_flush\": %d, \"enable_wal\": %d, "
      "\"sync_wal_every_write\": %d, \"wal_fsync\": %d, "
      "\"replication_log\": %d, \"chunk_cache_bytes\": %zu, "
      "\"enable_file_pruning\": %d, \"dedup_on_query\": %d, "
      "\"compaction_max_fanin\": %zu, \"compaction_tier_ratio\": %g, "
      "\"compaction_trigger_files\": %zu, "
      "\"compaction_check_interval_ms\": %zu}, "
      "\"server\": {\"event_loops\": %zu, \"workers\": %zu, "
      "\"max_connections\": %zu, \"max_inflight_requests\": %zu, "
      "\"max_inflight_bytes\": %zu, \"max_frame_bytes\": %zu, "
      "\"max_pipeline_depth\": %zu}, "
      "\"client\": {\"connections\": %zu, \"batch\": %zu, "
      "\"request_timeout_ms\": %d, \"max_retries\": %d}}",
      backsort::SorterName(e.sorter).c_str(), e.backward_options.theta,
      e.backward_options.initial_block_size, e.memtable_flush_threshold,
      e.points_per_page, e.footer_stats, e.shard_count, e.flush_workers,
      e.flush_parallelism, e.async_flush, e.enable_wal, e.sync_wal_every_write,
      e.wal_fsync, e.replication_log, e.chunk_cache_bytes,
      e.enable_file_pruning, e.dedup_on_query, e.compaction_max_fanin,
      e.compaction_tier_ratio, e.compaction_trigger_files,
      e.compaction_check_interval_ms, s.event_loops, s.workers,
      s.max_connections, s.max_inflight_requests, s.max_inflight_bytes,
      s.max_frame_bytes, s.max_pipeline_depth, kConnections, kBatch,
      c.request_timeout_ms, c.max_retries);
  return buf;
}

namespace {

/// The end-to-end metrics of the result line: the ones that hold still
/// from run to run on a shared virtual machine. Wall-clock latencies and
/// rates follow how much CPU the hypervisor hands the vCPUs, so they are
/// measured and printed on info lines (`info <name> <value> <unit>`) but
/// not gated; see README "Steadiness".
constexpr const char* kEndToEnd[] = {"setup_s", "cpu_us_per_op",
                                     "disk_bytes_per_point", "peak_rss_mib"};

/// Every end-to-end metric a pass measures, gated or not; a traced run
/// reports its tracing overhead on each. write_p99_ms is left out: on
/// dashboard_read it times the single-connection set-up load, where the
/// ~2 % of writes that seal a memtable put the p99 inside the stall
/// population.
constexpr const char* kMeasured[] = {
    "setup_s",        "cpu_us_per_op",    "ingest_pts_per_s",
    "write_p50_ms",   "query_p50_ms",     "query_p99_ms",
    "agg_p50_ms",     "agg_p99_ms",       "read_ops_per_s",
    "query_pts_per_s", "disk_bytes_per_point", "peak_rss_mib"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest_ooo|dashboard_read|paper_mix|paper_mix_read --seed N "
               "--seconds S --trace 0|1 --dir DIR\n",
               why);
  return 2;
}

void PrintLines(const char* tag, const std::vector<std::string>& lines) {
  for (const std::string& l : lines) std::printf("%s %s\n", tag, l.c_str());
}

}  // namespace

int Main(int argc, char** argv) {
  RunArgs args;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--dir") {
      args.dir = val;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.workload != "ingest_ooo" && args.workload != "dashboard_read" &&
      args.workload != "paper_mix" && args.workload != "paper_mix_read") {
    return Usage("unknown workload");
  }
  if ((trace != 0 && trace != 1) || args.dir.empty() || !(args.seconds > 0)) {
    return Usage("missing or invalid flag");
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BACKSORT_", 9) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "pins every engine option itself\n",
                   *e);
      return 2;
    }
  }
  const int rejected = NegativeControl();
  if (rejected != 3) {
    std::fprintf(stderr,
                 "perfbench: oracle negative control failed (%d of 3 "
                 "corruptions rejected)\n",
                 rejected);
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);

  std::printf("config {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"host_cores\": %u, "
              "\"options\": %s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, trace, std::thread::hardware_concurrency(),
              DescribeConfig(PinnedEngineOptions(args.dir, true),
                             PinnedServerOptions(), PinnedClientOptions())
                  .c_str());
  std::printf("negative_control rejected 3/3\n");

  std::vector<PassResult> passes;
  MetricMap metrics;
  if (trace == 0) {
    passes.push_back(RunPass(args, args.seconds, 5, false));
    for (auto& [name, m] : passes[0].e2e) {
      const bool gated = std::find(std::begin(kEndToEnd), std::end(kEndToEnd),
                                   name) != std::end(kEndToEnd);
      if (gated) {
        metrics[name] = m;
      } else {
        char line[128];
        std::snprintf(line, sizeof(line), "%s %.6g %s", name.c_str(), m.value,
                      m.unit.c_str());
        passes[0].info.push_back(line);
      }
    }
  } else {
    passes.push_back(RunPass(args, args.seconds / 2, 1, false));
    passes.push_back(RunPass(args, args.seconds / 2, 1, true));
    metrics = LayerMetrics(args, passes[1]);
    // Tracing overhead: traced over untraced, minus one, per metric; 0
    // where a pass could not report the metric (a p99 from fewer than
    // 1000 samples).
    for (const char* name : kMeasured) {
      const auto u = passes[0].e2e.find(name);
      const auto t = passes[1].e2e.find(name);
      const bool both = u != passes[0].e2e.end() &&
                        t != passes[1].e2e.end() && u->second.value != 0;
      metrics[std::string("overhead.") + name] = {
          both ? t->second.value / u->second.value - 1.0 : 0.0, "ratio"};
    }
  }

  uint64_t attempted = 0, failed = 0, checks = 0;
  bool correct = true;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    std::printf("pass %zu%s:", i, trace == 1 && i == 1 ? " (traced)" : "");
    for (size_t k = 0; k < kOpKinds; ++k) {
      std::printf(" %s attempted=%llu failed=%llu", OpName(OpKind(k)),
                  static_cast<unsigned long long>(p.attempted[k]),
                  static_cast<unsigned long long>(p.failed[k]));
      attempted += p.attempted[k];
      failed += p.failed[k];
    }
    std::printf(" checks=%llu\n", static_cast<unsigned long long>(p.checks));
    checks += p.checks;
    PrintLines("info", p.info);
    PrintLines("failed", p.faults);
    PrintLines("MISMATCH", p.errors);
    for (const std::string& e : p.errors) std::fprintf(stderr, "%s\n", e.c_str());
    if (!p.errors.empty()) correct = false;
  }
  if (checks == 0) correct = false;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
