// Shared declarations of the end-to-end benchmark: input streams, the
// oracle that checks every answer against the generator, the pinned
// configuration, span tracing and the per-workload entry points.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/engine_metrics.h"
#include "common/types.h"
#include "engine/engine_options.h"
#include "net/client.h"
#include "net/net_metrics.h"
#include "net/server.h"
#include "tsfile/tsfile.h"

namespace perfbench {

using backsort::Timestamp;
using backsort::TvPairDouble;
using RangeStats = backsort::TsFileReader::RangeStats;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Inputs

/// One sensor's input: an endless delay-only arrival stream built from one
/// GenerateArrivalOrderedSeries permutation of `n` generation times,
/// repeated segment after segment (segment g carries times g*n .. g*n+n-1
/// in the same arrival order). Arrival index `a` is the a-th point the
/// benchmark sends for the sensor.
struct Stream {
  std::string name;
  uint32_t index = 0;  ///< keys the sensor's value offset
  std::string delay;   ///< delay distribution name
  uint64_t n = 0;
  std::vector<uint32_t> order;  ///< arrival position -> relative time
  std::vector<uint32_t> pos;    ///< relative time -> arrival position

  Timestamp TimeAt(uint64_t a) const {
    return static_cast<Timestamp>((a / n) * n + order[a % n]);
  }
  /// True when time `t` is among the first `k` arrivals.
  bool Arrived(Timestamp t, uint64_t k) const {
    const auto u = static_cast<uint64_t>(t);
    return (u / n) * n + pos[u % n] < k;
  }
};

/// Builds the stream of sensor `index` from the generator; the delay
/// family alternates AbsNormal(1,10) / LogNormal(1,1) by index.
Stream MakeStream(const std::string& name, uint32_t index, uint64_t n,
                  uint64_t seed);

/// Value the generator assigns to time `t` of sensor `index`:
/// SignalValueAt(t) shifted by a per-sensor offset, so a point read back
/// under the wrong sensor cannot pass the check.
double BaseValue(uint32_t index, Timestamp t);
/// Value of a late rewrite (version >= 1) of time `t`.
double RewriteValue(uint32_t index, Timestamp t, uint32_t version);

/// Points [a, a + count) of `s` in arrival order, with generator values.
void FillBatch(const Stream& s, uint64_t a, size_t count,
               std::vector<TvPairDouble>* out);

// ---------------------------------------------------------------------------
// Oracle

/// A late rewrite of [lo, hi] applied after the stream's first `acked`
/// arrivals; later rewrites shadow earlier ones (last write wins).
struct Rewrite {
  Timestamp lo = 0;
  Timestamp hi = 0;
  uint32_t version = 1;
};

/// Plain model of one sensor's expected contents, derived only from what
/// the benchmark sent: the first `acked` arrivals of its stream plus the
/// ordered rewrites.
struct SensorModel {
  const Stream* stream = nullptr;
  uint64_t acked = 0;
  std::vector<Rewrite> rewrites;

  double ValueAt(Timestamp t) const;
  /// Expected points in [lo, hi] when `k` arrivals had been acknowledged.
  void Expected(Timestamp lo, Timestamp hi, uint64_t k,
                std::vector<TvPairDouble>* out) const;
};

/// Order-sensitive digest of a point sequence (count + 64-bit hash over
/// time and value bits), so answers are checked after the timed window
/// without keeping them.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 1469598103934665603ULL;
  void Add(const TvPairDouble& p);
  bool operator==(const Digest& o) const {
    return count == o.count && hash == o.hash;
  }
};
Digest DigestOf(const std::vector<TvPairDouble>& points);

/// Brute-force fold of expected points; `sum_abs` scales the tolerance.
struct Fold {
  RangeStats stats;
  double sum_abs = 0.0;
};
Fold FoldOf(const std::vector<TvPairDouble>& points);

/// Empty string when `got` matches: count, min, max, first and last
/// exactly, sum within a relative tolerance (fold order may differ).
std::string CheckAggregate(const RangeStats& got, const Fold& want);
/// Empty string when `got` is exactly `want` (times and value bits).
std::string CheckPoints(const std::vector<TvPairDouble>& got,
                        const std::vector<TvPairDouble>& want);

enum class OpKind : uint8_t { kWrite = 0, kQuery = 1, kAgg = 2 };
inline constexpr size_t kOpKinds = 3;
const char* OpName(OpKind k);

/// One read answer, kept for the post-run oracle check.
struct ReadRecord {
  OpKind kind = OpKind::kQuery;
  uint32_t sensor = 0;  ///< index into the workload's models
  Timestamp lo = 0;
  Timestamp hi = 0;
  uint64_t acked = 0;   ///< arrivals acknowledged when the read was sent
  Digest digest;        ///< Query answer
  RangeStats stats;     ///< AggregateFast answer
};

/// Checks every record against the models on `threads` threads; returns
/// the mismatches (capped) and counts checks into `checked`.
std::vector<std::string> CheckRecords(const std::vector<ReadRecord>& records,
                                      const std::vector<SensorModel>& models,
                                      size_t threads, uint64_t* checked);

/// Feeds the checker a dropped point, an altered value and a wrong count;
/// returns how many of the three it rejected (3 = control passed).
int NegativeControl();

// ---------------------------------------------------------------------------
// Configuration

backsort::EngineOptions PinnedEngineOptions(const std::string& dir,
                                            bool compaction);
backsort::ServerOptions PinnedServerOptions();
backsort::ClientOptions PinnedClientOptions();
/// JSON object of every pinned field (resolved values where the engine
/// resolves them).
std::string DescribeConfig(const backsort::EngineOptions& e,
                           const backsort::ServerOptions& s,
                           const backsort::ClientOptions& c);

/// Client connections of a timed window, each on its own thread: half the
/// reference host's cores, so the server's loop, workers, flush and
/// compaction threads are not starved by the load generator.
inline constexpr size_t kConnections = 2;
inline constexpr size_t kBatch = 500;

// ---------------------------------------------------------------------------
// Tracing

/// One span around a call the benchmark makes into a layer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's span list
  uint64_t request = 0;
};

/// Per-thread in-memory span log; a null log records nothing.
class SpanLog {
 public:
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; no-op when `log` is null (untraced run).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), id_(log ? log->Begin(name, request) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counter and histogram state read from the program before and after a
/// timed window.
struct Snapshot {
  backsort::EngineMetricsSnapshot engine;
  backsort::NetMetricsSnapshot net;
  double cpu_s = 0.0;
};
Snapshot TakeSnapshot(backsort::BacksortServer& server);

/// Everything one pass of a workload produced.
struct PassResult {
  MetricMap e2e;
  uint64_t attempted[kOpKinds] = {};
  uint64_t failed[kOpKinds] = {};
  std::vector<std::string> errors;  ///< oracle mismatches, engine errors
  std::vector<std::string> faults;  ///< failed operations (first few)
  uint64_t checks = 0;
  std::vector<std::string> info;  ///< extra "name value" report lines

  // Traced pass only.
  Snapshot before, after;
  double window_s = 0.0;
  uint64_t points_written = 0;  ///< in the timed window
  uint64_t points_read = 0;     ///< returned by Query in the timed window
  uint64_t read_ops = 0;        ///< in the timed window
  std::vector<double> write_rtt_ms;  ///< timed-window client round trips
  std::vector<std::unique_ptr<SpanLog>> spans;
  std::vector<std::unique_ptr<Stream>> streams;  ///< the workload's inputs
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string dir;  ///< scratch directory for data files and traces
};

/// Runs one pass: `setups` set-ups (setup_s is their median, the last is
/// kept), then the timed window, then the checks. `traced` records spans.
PassResult RunPass(const RunArgs& args, double seconds, int setups,
                   bool traced);

/// Per-layer metrics of a traced pass (deltas, replays, span self times).
MetricMap LayerMetrics(const RunArgs& args, PassResult& traced);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
