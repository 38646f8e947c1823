// Aggregation benchmark for the statistics-driven read plan: identical
// workloads are ingested into two engines — footer statistics on (BSTF2)
// and off (stat-less BSTF1, the decode fallback) — and AggregateFast is
// timed over a sweep of range sizes. Panels cover an ordered stream (many
// sequence files, answered from footer statistics alone), a disordered
// stream that is compacted first (the paper's steady state:
// backward-sorted flushes merged into sequence files, statistics
// recomputed from surviving points), and sparse late arrivals: the
// compacted layout of a stream with holes plus one unsequence file of
// late points that fill some of them, so the merge folds every page no
// late point lands in and decodes the rest.
//
// Prints one table per panel (range fraction x configuration: µs/op and
// page reads per call — page and page-index lookups through the chunk
// cache, each a decode when cold) and writes BENCH_system_agg.json whose
// headline `stats_agg_speedup` field — the geometric mean of the
// full-coverage-range speedup across the statistics-only panels (ordered
// and compacted) — is gated by ci.sh (>= 3.0, best of three).
//
// Scale via BACKSORT_SYSTEM_POINTS (default 400k) and BACKSORT_AGG_ITERS
// (timed iterations per cell, default 200).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/system_bench.h"
#include "disorder/series_generator.h"

namespace backsort::bench {
namespace {

struct AggPanel {
  std::string name;
  std::unique_ptr<DelayDistribution> delay;
  bool compact;  // merge to sequence files before measuring
  /// Holes at t % 50 == 25, then (after compaction) one unsequence file
  /// of late points into every 80th hole; not in the headline.
  bool late = false;
};

struct CellResult {
  double stats_on_us = 0;
  double stats_off_us = 0;
  double speedup = 0;
  size_t count = 0;
  double pages_on = 0;   // page reads per call, statistics on
  double pages_off = 0;  // the same for the decode fallback
  uint64_t stats_hits = 0;
  uint64_t stats_misses = 0;
};

// Builds one engine, ingests the panel's stream (seeded identically per
// configuration) and seals it. Returns null on failure.
std::unique_ptr<StorageEngine> BuildEngine(const std::filesystem::path& dir,
                                           const AggPanel& panel,
                                           size_t points, bool footer_stats) {
  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.sorter = SorterId::kBackward;
  opt.memtable_flush_threshold = std::max<size_t>(points / 10, 5'000);
  opt.async_flush = false;
  opt.footer_stats = footer_stats;
  auto engine = std::make_unique<StorageEngine>(opt);
  if (Status st = engine->Open(); !st.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  Rng rng(7);
  const auto ts = GenerateArrivalOrderedTimestamps(points, *panel.delay, rng);
  for (const Timestamp t : ts) {
    if (panel.late && t % 50 == 25) continue;
    if (Status st = engine->Write("agg", t, SignalValueAt(size_t(t)));
        !st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  if (Status st = engine->FlushAll(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  if (panel.compact) {
    if (Status st = engine->Compact(); !st.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  if (panel.late) {
    // Below the watermark: one sparse unsequence file.
    for (Timestamp t = 1'025; t < Timestamp(points); t += 4'000) {
      if (Status st = engine->Write("agg", t, SignalValueAt(size_t(t)));
          !st.ok()) {
        std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        return nullptr;
      }
    }
    if (Status st = engine->FlushAll(); !st.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  return engine;
}

// Times AggregateFast over [0, frac * points) on one engine; µs per call.
// `page_reads` receives the page and page-index lookups per call.
double TimeAggregate(StorageEngine& engine, size_t points, double frac,
                     size_t iters, TsFileReader::RangeStats* out,
                     double* page_reads) {
  const Timestamp t_max =
      static_cast<Timestamp>(std::max(1.0, frac * double(points)) - 1);
  bool used_fast = false;
  // Warm-up: populate footer/page caches; both configurations get it.
  for (int i = 0; i < 2; ++i) {
    (void)engine.AggregateFast("agg", 0, t_max, out, &used_fast);
  }
  const ChunkCacheStats before = engine.GetChunkCacheStats();
  WallTimer timer;
  for (size_t i = 0; i < iters; ++i) {
    if (Status st = engine.AggregateFast("agg", 0, t_max, out, &used_fast);
        !st.ok()) {
      std::fprintf(stderr, "aggregate failed: %s\n", st.ToString().c_str());
      return 0;
    }
  }
  const double us = timer.ElapsedMillis() * 1e3 / double(iters);
  const ChunkCacheStats after = engine.GetChunkCacheStats();
  *page_reads = double(after.hits + after.misses - before.hits -
                       before.misses) /
                double(iters);
  return us;
}

void RunPanel(const AggPanel& panel, size_t points, size_t iters,
              JsonWriter* json, std::vector<double>* headline_speedups) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_agg_" + std::to_string(::getpid()) + "_" + panel.name);
  auto on = BuildEngine(base / "on", panel, points, /*footer_stats=*/true);
  auto off = BuildEngine(base / "off", panel, points, /*footer_stats=*/false);
  if (!on || !off) return;

  const std::vector<double> fracs = {1.0, 0.5, 0.1, 0.01};
  PrintTitle("system_agg / " + panel.name + ": AggregateFast µs/op (" +
             std::to_string(points) + " points)");
  PrintHeader("range",
              {"stats_on", "decode", "speedup", "pages_on", "pages_off"});
  for (const double frac : fracs) {
    CellResult cell;
    TsFileReader::RangeStats s_on, s_off;
    cell.stats_on_us =
        TimeAggregate(*on, points, frac, iters, &s_on, &cell.pages_on);
    cell.stats_off_us =
        TimeAggregate(*off, points, frac, iters, &s_off, &cell.pages_off);
    if (cell.stats_on_us <= 0 || cell.stats_off_us <= 0) return;
    cell.speedup = cell.stats_off_us / cell.stats_on_us;
    cell.count = s_on.count;
    // Differential sanity: both engines must agree bit for bit (the sum
    // may reassociate across pages; compare with a tight tolerance).
    if (s_on.count != s_off.count || s_on.min != s_off.min ||
        s_on.max != s_off.max ||
        std::abs(s_on.sum - s_off.sum) >
            1e-9 * std::max(1.0, std::abs(s_off.sum))) {
      std::fprintf(stderr, "ANSWER MISMATCH at %s frac %g\n",
                   panel.name.c_str(), frac);
      return;
    }
    const auto snap = on->GetMetricsSnapshot();
    cell.stats_hits = snap.agg_stats_hits;
    cell.stats_misses = snap.agg_stats_misses;
    char label[32];
    std::snprintf(label, sizeof(label), "%g%%", frac * 100);
    PrintRow(label, {cell.stats_on_us, cell.stats_off_us, cell.speedup,
                     cell.pages_on, cell.pages_off});
    if (frac == 1.0 && !panel.late) headline_speedups->push_back(cell.speedup);
    if (json != nullptr) {
      json->BeginObject(panel.name + "|" + label);
      json->Field("panel", panel.name);
      json->Field("range_frac", frac);
      json->Field("points", points);
      json->Field("range_count", cell.count);
      json->Field("stats_on_us", cell.stats_on_us);
      json->Field("stats_off_us", cell.stats_off_us);
      json->Field("speedup", cell.speedup);
      json->Field("pages_on_per_call", cell.pages_on);
      json->Field("pages_off_per_call", cell.pages_off);
      json->Field("stats_hits", static_cast<size_t>(cell.stats_hits));
      json->Field("stats_misses", static_cast<size_t>(cell.stats_misses));
      json->EndObject();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

}  // namespace
}  // namespace backsort::bench

int main() {
  using namespace backsort;
  using namespace backsort::bench;
  const size_t points = EnvSize("BACKSORT_SYSTEM_POINTS", 400'000);
  const size_t iters = EnvSize("BACKSORT_AGG_ITERS", 200);

  std::vector<AggPanel> panels;
  panels.push_back(
      {"Ordered", std::make_unique<ConstantDelay>(0.0), /*compact=*/false});
  panels.push_back({"AbsNormal(1,50)+compact",
                    std::make_unique<AbsNormalDelay>(1.0, 50.0),
                    /*compact=*/true});
  panels.push_back({"SparseLate+compact",
                    std::make_unique<AbsNormalDelay>(1.0, 50.0),
                    /*compact=*/true, /*late=*/true});

  JsonWriter json;
  json.Field("bench", "system_agg");
  json.Field("host_cores", size_t{std::thread::hardware_concurrency()});
  json.Field("points", points);
  json.Field("iters", iters);
  std::vector<double> headline;
  for (const AggPanel& panel : panels) {
    RunPanel(panel, points, iters, &json, &headline);
  }
  if (headline.empty()) {
    std::fprintf(stderr, "no panel completed\n");
    return 1;
  }
  double log_sum = 0;
  for (const double s : headline) log_sum += std::log(s);
  const double speedup = std::exp(log_sum / double(headline.size()));
  std::printf("\nstats_agg_speedup (geomean of full-range panels): %.2fx\n",
              speedup);
  json.Field("stats_agg_speedup", speedup);
  WriteBenchJson(json, "system_agg");
  return 0;
}
