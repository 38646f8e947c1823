// Mixed read/write benchmark for the rebuilt read path: readers repeat
// fixed-range queries while a writer streams disordered points, once with
// the shared chunk cache + file pruning enabled and once with both off.
// Prints write throughput, query p50/p99 latency and the cache hit rate
// per configuration, and writes the full metric registries (query-stage
// histograms, cache counters) to
// $BACKSORT_METRICS_DIR/system_query_mix.metrics.prom.
//
// A second panel isolates the last-write-wins merge: one sensor whose
// history is k overlapping sealed files (k = 2..64, interleaved
// timestamps, so every output point switches runs), queried over its full
// range with a warm chunk cache. It reports Query p50/p99 and merged
// points per second per k.

#include "bench/system_bench.h"

namespace {

using namespace backsort;
using namespace backsort::bench;

void RunOverlapPanel(JsonWriter* json) {
  const size_t points = EnvSize("BACKSORT_SYSTEM_POINTS", 100'000);
  const size_t reps = std::max<size_t>(EnvSize("BACKSORT_REPEATS", 3) * 10, 5);
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_overlap_" + std::to_string(::getpid()));
  PrintTitle("Query over k overlapping runs (" + std::to_string(points) +
             " points, full range, warm cache, " + std::to_string(reps) +
             " reps)");
  PrintHeader("runs k", {"q_p50_ms", "q_p99_ms", "Mpts_per_s"});
  for (const size_t k : {2, 4, 8, 16, 32, 64}) {
    EngineOptions opt;
    opt.data_dir = (base / std::to_string(k)).string();
    opt.shard_count = 1;
    opt.flush_workers = 1;
    opt.async_flush = false;
    opt.memtable_flush_threshold = points + 1;  // seal only on FlushAll
    StorageEngine engine(opt);
    if (Status st = engine.Open(); !st.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n", st.ToString().c_str());
      return;
    }
    // Run r holds t = r, r + k, r + 2k, ...; run 0 also holds the last
    // timestamp, so runs 1..k-1 land below its watermark as unsequence
    // files that overlap it and each other over the whole range.
    const Timestamp last = static_cast<Timestamp>(points);
    for (size_t r = 0; r < k; ++r) {
      for (size_t t = r; t < points; t += k) {
        (void)engine.Write("ov", static_cast<Timestamp>(t), double(t));
      }
      if (r == 0) (void)engine.Write("ov", last, double(last));
      if (Status st = engine.FlushAll(); !st.ok()) {
        std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
        return;
      }
    }
    std::vector<TvPairDouble> out;
    (void)engine.Query("ov", 0, last, &out);  // warm the cache
    std::vector<double> ms;
    size_t merged = 0;
    for (size_t i = 0; i < reps; ++i) {
      WallTimer timer;
      if (!engine.Query("ov", 0, last, &out).ok()) return;
      ms.push_back(timer.ElapsedMillis());
      merged += out.size();
    }
    double total_ms = 0;
    for (double m : ms) total_ms += m;
    std::sort(ms.begin(), ms.end());
    const double p50 = ms[ms.size() / 2];
    const double p99 = ms[std::min(ms.size() - 1, ms.size() * 99 / 100)];
    const double mpts = total_ms <= 0 ? 0 : double(merged) / total_ms / 1e3;
    PrintRow(std::to_string(k), {p50, p99, mpts});
    if (json != nullptr) {
      json->BeginObject("overlap_query|k=" + std::to_string(k));
      json->Field("runs", k);
      json->Field("points", points + 1);
      json->Field("reps", reps);
      json->Field("query_p50_ms", p50);
      json->Field("query_p99_ms", p99);
      json->Field("merged_points_per_s", mpts * 1e6);
      json->EndObject();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

}  // namespace

int main() {
  MetricsRegistry metrics;
  JsonWriter json;
  json.Field("bench", "system_query_mix");
  AbsNormalDelay mild(1, 1.0);
  RunQueryMix("AbsNormal(1,1)", mild, &metrics, &json);
  AbsNormalDelay heavy(1, 100.0);
  RunQueryMix("AbsNormal(1,100)", heavy, &metrics, &json);
  RunOverlapPanel(&json);
  WriteBenchMetrics(metrics, "system_query_mix");
  WriteBenchJson(json, "system_query_mix");
  return 0;
}
