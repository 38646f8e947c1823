// The four workloads. Each pass: several identical set-ups (setup_s is
// their median; the last one is kept), a closed-loop timed window over
// kConnections BSN1 connections to an in-process BacksortServer, then the
// untimed checks of every answer and of the final state of every sensor.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sys/resource.h>
#include <thread>
#include <time.h>

#include "common/rng.h"
#include "engine/storage_engine.h"
#include "perfbench.h"

namespace perfbench {

using backsort::BacksortClient;
using backsort::BacksortServer;
using backsort::Status;
using backsort::StorageEngine;

namespace {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

/// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double RssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Samples the process's resident set every 10 ms while alive. Stop()
/// returns the median over whole seconds of each second's peak, like the
/// other timed-window figures.
class RssSampler {
 public:
  RssSampler() : start_ns_(NowNs()), thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    std::vector<double> whole = peaks_;
    if (whole.size() > 1) whole.pop_back();  // the last second is partial
    return Median(whole);
  }
  /// CPU time the sampler itself used; valid after Stop().
  double cpu_s() const { return cpu_s_; }

 private:
  void Loop() {
    const double cpu0 = ThreadCpuSeconds();
    for (bool last = false; !last;) {
      last = stop_.load();
      const size_t second =
          static_cast<size_t>((NowNs() - start_ns_) / 1'000'000'000);
      if (peaks_.size() <= second) peaks_.resize(second + 1, 0.0);
      peaks_[second] = std::max(peaks_[second], RssMib());
      if (!last) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    cpu_s_ = ThreadCpuSeconds() - cpu0;
  }
  const int64_t start_ns_;
  std::atomic<bool> stop_{false};
  std::vector<double> peaks_;  ///< per second, owned by the thread until Stop
  double cpu_s_ = 0.0;         ///< owned by the thread until Stop
  std::thread thread_;
};

uint64_t SealedBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".bstf") {
      bytes += e.file_size(ec);
    }
  }
  return bytes;
}

/// One client call: when it completed, how long it took, and the points
/// it carried (written by a write, returned by a Query).
struct Sample {
  int64_t end_ns = 0;
  double ms = 0.0;
  uint64_t points = 0;
};

/// Samples and counts of one connection.
struct Lane {
  std::vector<Sample> ops[kOpKinds];
  uint64_t attempted[kOpKinds] = {};
  uint64_t failed[kOpKinds] = {};
  uint64_t points_written = 0;
  uint64_t points_returned = 0;  ///< by Query
  double cpu_s = 0.0;  ///< CPU time of the connection's load-generator thread
  std::vector<ReadRecord> records;
  std::vector<std::string> faults;
  std::unique_ptr<SpanLog> spans;

  void Fail(OpKind k, const Status& st) {
    ++failed[static_cast<size_t>(k)];
    if (faults.size() < 5) faults.push_back(std::string(OpName(k)) + ": " +
                                            st.ToString());
  }
};

/// A running server with its connections, inputs and models.
struct Fixture {
  std::string dir;
  std::unique_ptr<BacksortServer> server;
  std::vector<std::unique_ptr<BacksortClient>> clients;
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<SensorModel> models;
  std::vector<Timestamp> latest;  ///< largest acked time per sensor

  StorageEngine& engine() { return *server->engine(); }
  ~Fixture() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

Status StartServer(Fixture* fx, bool compaction, bool fresh = true) {
  if (fresh) {
    std::error_code ec;
    std::filesystem::remove_all(fx->dir, ec);
  }
  fx->server = std::make_unique<BacksortServer>(
      PinnedEngineOptions(fx->dir, compaction), PinnedServerOptions());
  if (Status st = fx->server->Start(); !st.ok()) return st;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<BacksortClient>(PinnedClientOptions());
    if (Status st = client->Connect("127.0.0.1", fx->server->port());
        !st.ok()) {
      return st;
    }
    fx->clients.push_back(std::move(client));
  }
  return Status::OK();
}

void MakeStreams(Fixture* fx, const std::string& prefix, size_t sensors,
                 uint64_t n, uint64_t seed) {
  for (size_t i = 0; i < sensors; ++i) {
    const auto idx = static_cast<uint32_t>(i);
    fx->streams.push_back(std::make_unique<Stream>(
        MakeStream(prefix + ".c" + std::to_string(i % kConnections) + ".s" +
                       std::to_string(i / kConnections),
                   idx, n, seed)));
    fx->models.push_back(SensorModel{fx->streams.back().get(), 0, {}});
  }
  fx->latest.assign(sensors, -1);
}

/// One timed client call. Records latency, the failure, and a span.
template <typename Fn>
bool Timed(Lane& lane, OpKind kind, uint64_t request, const char* span,
           Fn&& call) {
  ++lane.attempted[static_cast<size_t>(kind)];
  Scoped s(lane.spans.get(), span, request);
  const int64_t t0 = NowNs();
  const Status st = call();
  const int64_t t1 = NowNs();
  lane.ops[static_cast<size_t>(kind)].push_back({t1, (t1 - t0) / 1e6, 0});
  if (!st.ok()) {
    lane.Fail(kind, st);
    return false;
  }
  return true;
}

/// Writes arrivals [acked, acked + count) of sensor `i` on `client`.
bool WriteNext(Fixture& fx, BacksortClient& client, Lane& lane, size_t i,
               size_t count, uint64_t request,
               std::vector<TvPairDouble>* batch) {
  Scoped op(lane.spans.get(), "op.write", request);
  SensorModel& m = fx.models[i];
  {
    Scoped s(lane.spans.get(), "bench.fill", request);
    FillBatch(*m.stream, m.acked, count, batch);
  }
  if (!Timed(lane, OpKind::kWrite, request, "net.client.write_batch",
             [&] { return client.WriteBatch(m.stream->name, *batch); })) {
    return false;
  }
  m.acked += count;
  lane.points_written += count;
  lane.ops[static_cast<size_t>(OpKind::kWrite)].back().points = count;
  for (const TvPairDouble& p : *batch) {
    fx.latest[i] = std::max(fx.latest[i], p.t);
  }
  return true;
}

void Query(Fixture& fx, BacksortClient& client, Lane& lane, size_t i,
           Timestamp lo, Timestamp hi, uint64_t request,
           std::vector<TvPairDouble>* out) {
  Scoped op(lane.spans.get(), "op.query", request);
  const SensorModel& m = fx.models[i];
  if (!Timed(lane, OpKind::kQuery, request, "net.client.query",
             [&] { return client.Query(m.stream->name, lo, hi, out); })) {
    return;
  }
  Scoped s(lane.spans.get(), "bench.record", request);
  lane.points_returned += out->size();
  lane.ops[static_cast<size_t>(OpKind::kQuery)].back().points = out->size();
  ReadRecord r;
  r.kind = OpKind::kQuery;
  r.sensor = static_cast<uint32_t>(i);
  r.lo = lo;
  r.hi = hi;
  r.acked = m.acked;
  r.digest = DigestOf(*out);
  lane.records.push_back(r);
}

void Aggregate(Fixture& fx, BacksortClient& client, Lane& lane, size_t i,
               Timestamp lo, Timestamp hi, uint64_t request) {
  Scoped op(lane.spans.get(), "op.agg", request);
  const SensorModel& m = fx.models[i];
  ReadRecord r;
  if (!Timed(lane, OpKind::kAgg, request, "net.client.aggregate_fast", [&] {
        return client.AggregateFast(m.stream->name, lo, hi, &r.stats);
      })) {
    return;
  }
  Scoped s(lane.spans.get(), "bench.record", request);
  r.kind = OpKind::kAgg;
  r.sensor = static_cast<uint32_t>(i);
  r.lo = lo;
  r.hi = hi;
  r.acked = m.acked;
  lane.records.push_back(r);
}

/// Runs `body(c, lane)` on one thread per connection and returns the wall
/// time in seconds; each lane records its thread's CPU time.
template <typename Body>
double RunLanes(std::vector<Lane>& lanes, Body body) {
  std::vector<std::thread> threads;
  const int64_t t0 = NowNs();
  for (size_t c = 0; c < lanes.size(); ++c) {
    threads.emplace_back([&, c] {
      const double cpu0 = ThreadCpuSeconds();
      body(c, lanes[c]);
      lanes[c].cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  return (NowNs() - t0) / 1e9;
}

std::vector<Lane> MakeLanes(bool traced) {
  std::vector<Lane> lanes(kConnections);
  for (Lane& l : lanes) {
    if (traced) l.spans = std::make_unique<SpanLog>();
  }
  return lanes;
}

/// Folds lanes into the pass: op counts, faults, records.
void Absorb(std::vector<Lane>& lanes, PassResult* out,
            std::vector<ReadRecord>* records) {
  for (Lane& l : lanes) {
    for (size_t k = 0; k < kOpKinds; ++k) {
      out->attempted[k] += l.attempted[k];
      out->failed[k] += l.failed[k];
    }
    out->faults.insert(out->faults.end(), l.faults.begin(), l.faults.end());
    records->insert(records->end(), l.records.begin(), l.records.end());
    if (l.spans != nullptr) out->spans.push_back(std::move(l.spans));
  }
}

std::vector<double> Pooled(const std::vector<Lane>& lanes, OpKind k) {
  std::vector<double> all;
  for (const Lane& l : lanes) {
    for (const Sample& s : l.ops[static_cast<size_t>(k)]) all.push_back(s.ms);
  }
  return all;
}

/// p50 always, p99 only from at least 1000 samples.
void Latency(MetricMap* m, const std::string& prefix,
             const std::vector<double>& ms) {
  (*m)[prefix + "_p50_ms"] = {Quantile(ms, 0.50), "ms"};
  if (ms.size() >= 1000) (*m)[prefix + "_p99_ms"] = {Quantile(ms, 0.99), "ms"};
}

/// Timed-window metrics: rates and p50s are medians over the window's
/// whole one-second sub-windows, so a burst of contention from outside
/// the process that slows a few seconds moves them less than a
/// whole-window figure; a p99 is taken over the whole window's samples
/// and reported only from at least 1000 of them.
class SubWindows {
 public:
  SubWindows(const std::vector<Lane>& lanes, int64_t start_ns, int64_t end_ns)
      : lanes_(lanes), start_ns_(start_ns) {
    count_ = std::max<int64_t>(1, (end_ns - start_ns) / kLen);
    len_ = count_ == 1 ? end_ns - start_ns : kLen;
  }

  void Writes(MetricMap* m) const {
    Latencies(m, "write", OpKind::kWrite);
    (*m)["ingest_pts_per_s"] = {
        Median(PerWindow(OpKind::kWrite,
                         [&](const std::vector<const Sample*>& v) {
                           uint64_t pts = 0;
                           for (const Sample* s : v) pts += s->points;
                           return pts / (len_ / 1e9);
                         })),
        "points/s"};
  }

  void Reads(MetricMap* m) const {
    Latencies(m, "query", OpKind::kQuery);
    Latencies(m, "agg", OpKind::kAgg);
    const auto rate = [&](const std::vector<const Sample*>& v) {
      return v.size() / (len_ / 1e9);
    };
    const std::vector<double> q = PerWindow(OpKind::kQuery, rate);
    const std::vector<double> a = PerWindow(OpKind::kAgg, rate);
    std::vector<double> ops(q.size());
    for (size_t i = 0; i < q.size(); ++i) ops[i] = q[i] + a[i];
    (*m)["read_ops_per_s"] = {Median(ops), "ops/s"};
    (*m)["query_pts_per_s"] = {
        Median(PerWindow(OpKind::kQuery,
                         [](const std::vector<const Sample*>& v) {
                           double ms = 0.0;
                           uint64_t pts = 0;
                           for (const Sample* s : v) {
                             ms += s->ms;
                             pts += s->points;
                           }
                           return ms > 0 ? pts / (ms / 1e3) : 0.0;
                         })),
        "points/s"};
  }

 private:
  static constexpr int64_t kLen = 1'000'000'000;

  template <typename Fn>
  std::vector<double> PerWindow(OpKind k, Fn fn) const {
    std::vector<std::vector<const Sample*>> by(count_);
    for (const Lane& l : lanes_) {
      for (const Sample& s : l.ops[static_cast<size_t>(k)]) {
        const int64_t w = (s.end_ns - start_ns_) / len_;
        if (w >= 0 && w < count_) by[w].push_back(&s);
      }
    }
    std::vector<double> out;
    for (const auto& v : by) out.push_back(fn(v));
    return out;
  }

  void Latencies(MetricMap* m, const std::string& prefix, OpKind k) const {
    Latency(m, prefix, Pooled(lanes_, k));  // the p99 stays whole-window
    (*m)[prefix + "_p50_ms"] = {
        Median(PerWindow(k,
                         [](const std::vector<const Sample*>& v) {
                           std::vector<double> ms;
                           for (const Sample* s : v) ms.push_back(s->ms);
                           return Quantile(ms, 0.5);
                         })),
        "ms"};
  }

  const std::vector<Lane>& lanes_;
  int64_t start_ns_;
  int64_t count_ = 1;
  int64_t len_ = kLen;
};

/// Reads every sensor in 2^18-time ranges (far below the frame limit) on
/// kConnections threads, `read(thread, sensor, lo, hi, out)`, and compares
/// each range point for point with the model.
template <typename Read>
void CheckState(const std::vector<SensorModel>& models, const char* when,
                PassResult* out, Read read) {
  constexpr Timestamp kChunk = Timestamp{1} << 18;
  std::vector<std::vector<std::string>> errors(kConnections);
  std::vector<uint64_t> checks(kConnections, 0);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < kConnections; ++c) {
    pool.emplace_back([&, c] {
      std::vector<TvPairDouble> got, want;
      for (size_t i = c; i < models.size(); i += kConnections) {
        const SensorModel& m = models[i];
        const auto end = static_cast<Timestamp>(
            (m.acked + m.stream->n - 1) / m.stream->n * m.stream->n);
        for (Timestamp lo = 0; lo < end; lo += kChunk) {
          std::string why;
          if (Status st = read(c, m, lo, lo + kChunk - 1, &got); !st.ok()) {
            why = "read failed: " + st.ToString();
          } else {
            m.Expected(lo, lo + kChunk - 1, m.acked, &want);
            why = CheckPoints(got, want);
          }
          ++checks[c];
          if (!why.empty() && errors[c].size() < 5) {
            errors[c].push_back(std::string(when) + " state of " +
                                m.stream->name + ": " + why);
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t c = 0; c < kConnections; ++c) {
    out->checks += checks[c];
    out->errors.insert(out->errors.end(), errors[c].begin(), errors[c].end());
  }
}

/// Final state of every sensor read over the wire.
void CheckFinalState(Fixture& fx, PassResult* out) {
  CheckState(fx.models, "final", out,
             [&](size_t c, const SensorModel& m, Timestamp lo, Timestamp hi,
                 std::vector<TvPairDouble>* got) {
               return fx.clients[c]->Query(m.stream->name, lo, hi, got);
             });
}

/// Final state of every sensor read in-process.
void CheckEngineState(StorageEngine& engine,
                      const std::vector<SensorModel>& models, const char* when,
                      PassResult* out) {
  CheckState(models, when, out,
             [&](size_t, const SensorModel& m, Timestamp lo, Timestamp hi,
                 std::vector<TvPairDouble>* got) {
               return engine.Query(m.stream->name, lo, hi, got);
             });
}

/// Runs tiered compaction steps until the planner finds nothing to merge.
/// StorageEngine::Compact() is not used: it re-merges its own growing
/// output in every fan-in window, so its cost grows with the square of
/// the file count.
Status Settle(StorageEngine& engine) {
  for (;;) {
    bool performed = false;
    if (Status st = engine.CompactStep(&performed); !st.ok()) return st;
    if (!performed) return Status::OK();
  }
}

/// Stops the server; background compaction is joined, so the files on
/// disk are final.
void StopServer(Fixture& fx) {
  fx.clients.clear();
  fx.server->Stop();
  fx.server.reset();
}

/// Sealed bytes per stored point of a stopped server's data directory.
void DiskBytes(const Fixture& fx, PassResult* out) {
  uint64_t points = 0;
  std::vector<TvPairDouble> want;
  for (const SensorModel& m : fx.models) {
    m.Expected(0, std::numeric_limits<Timestamp>::max(), m.acked, &want);
    points += want.size();
  }
  out->e2e["disk_bytes_per_point"] = {
      points ? static_cast<double>(SealedBytes(fx.dir)) / points : 0.0,
      "B/point"};
}

/// Adds "phase_s <name> <seconds>" to the report.
void Phase(PassResult* out, const char* name, int64_t start_ns) {
  char line[96];
  std::snprintf(line, sizeof(line), "phase_s %s %.3f", name,
                (NowNs() - start_ns) / 1e9);
  out->info.push_back(line);
}

void CheckRecordsInto(const std::vector<ReadRecord>& records,
                      const std::vector<SensorModel>& models,
                      PassResult* out) {
  std::vector<std::string> bad =
      CheckRecords(records, models, kConnections, &out->checks);
  out->errors.insert(out->errors.end(), bad.begin(), bad.end());
}

/// Runs `make` `setups` times (each into a fresh directory), keeps the
/// last fixture and reports the median set-up time.
template <typename Make>
std::unique_ptr<Fixture> SetUp(const RunArgs& args, int setups,
                               PassResult* out, Make make) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < setups; ++i) {
    fx.reset();
    fx = std::make_unique<Fixture>();
    fx->dir = args.dir + "/" + args.workload + "-data";
    const int64_t t0 = NowNs();
    if (Status st = make(*fx); !st.ok()) {
      out->errors.push_back("set-up: " + st.ToString());
      return nullptr;
    }
    times.push_back((NowNs() - t0) / 1e9);
  }
  out->e2e["setup_s"] = {Median(times), "s"};
  char line[160];
  std::snprintf(line, sizeof(line), "inputs %zu sensors, n=%llu, delays %s / %s",
                fx->streams.size(),
                static_cast<unsigned long long>(fx->streams[0]->n),
                fx->streams[0]->delay.c_str(), fx->streams[1]->delay.c_str());
  out->info.push_back(line);
  return fx;
}

/// Timed-window bookkeeping shared by the workloads.
struct Window {
  explicit Window(BacksortServer& server, bool traced, PassResult* out)
      : out_(out), traced_(traced) {
    if (traced_) out_->before = TakeSnapshot(server);
    start_ns = NowNs();
    cpu0_ = CpuSeconds();
  }
  /// Closes the window; `server` snapshot is taken after it.
  void Close(BacksortServer& server) {
    end_ns = NowNs();
    cpu1_ = CpuSeconds();
    out_->window_s = (end_ns - start_ns) / 1e9;
    out_->e2e["peak_rss_mib"] = {rss_.Stop(), "MiB"};
    if (traced_) out_->after = TakeSnapshot(server);
  }
  /// cpu_us_per_op: the process's CPU time over the window less that of
  /// the load-generator threads and the RSS sampler, i.e. what the server
  /// (network, engine, flush, compaction) spent, per client operation the
  /// window completed. CPU time excludes the time the host takes the vCPUs
  /// away, which moves every wall-clock figure of a run.
  void CpuPerOp(const std::vector<Lane>& lanes) {
    double load_s = rss_.cpu_s();
    uint64_t ops = 0;
    for (const Lane& l : lanes) {
      load_s += l.cpu_s;
      for (size_t k = 0; k < kOpKinds; ++k) ops += l.attempted[k];
    }
    const double server_s = std::max(0.0, cpu1_ - cpu0_ - load_s);
    out_->e2e["cpu_us_per_op"] = {ops ? server_s / ops * 1e6 : 0.0, "us"};
  }
  int64_t start_ns = 0;
  int64_t end_ns = 0;

 private:
  PassResult* out_;
  bool traced_;
  double cpu0_ = 0.0, cpu1_ = 0.0;
  RssSampler rss_;
};

// ---------------------------------------------------------------------------
// ingest_ooo: write-only closed loop, 8 sensors per connection, background
// compaction on; the window ends when FlushAll returns.

constexpr size_t kIngestSensors = 32;
constexpr uint64_t kIngestSegment = 32768;
constexpr Timestamp kReadbackWindow = 1024;  // times per read-back window
constexpr Timestamp kReadbackWindows = 64;  // most recent, per sensor

void RunIngest(const RunArgs& args, double seconds, int setups, bool traced,
               PassResult* out) {
  auto fx = SetUp(args, setups, out, [&](Fixture& f) {
    MakeStreams(&f, "ingest", kIngestSensors, kIngestSegment, args.seed);
    return StartServer(&f, /*compaction=*/true);
  });
  if (fx == nullptr) return;
  SpanLog main_log;
  SpanLog* log = traced ? &main_log : nullptr;

  std::vector<Lane> lanes = MakeLanes(traced);
  Window window(*fx->server, traced, out);
  const int64_t deadline = window.start_ns + static_cast<int64_t>(seconds * 1e9);
  RunLanes(lanes, [&](size_t c, Lane& lane) {
    std::vector<TvPairDouble> batch;
    uint64_t request = c << 40;
    // One round = one batch to each of the connection's sensors.
    while (NowNs() < deadline) {
      for (size_t i = c; i < kIngestSensors; i += kConnections) {
        WriteNext(*fx, *fx->clients[c], lane, i, kBatch, ++request, &batch);
      }
    }
  });
  {
    Scoped s(log, "engine.flush_all");
    if (Status st = fx->engine().FlushAll(); !st.ok()) {
      out->errors.push_back("flush: " + st.ToString());
    }
  }
  window.Close(*fx->server);
  window.CpuPerOp(lanes);

  uint64_t written = 0;
  for (const Lane& l : lanes) written += l.points_written;
  out->points_written = written;
  out->write_rtt_ms = Pooled(lanes, OpKind::kWrite);
  SubWindows(lanes, window.start_ns, window.end_ns).Writes(&out->e2e);
  char line[96];
  std::snprintf(line, sizeof(line), "window_pts_per_s %.0f",
                written / out->window_s);
  out->info.push_back(line);
  std::vector<ReadRecord> records;
  Absorb(lanes, out, &records);

  // Stop at once, so the files on disk are what the window left (the
  // background compaction would otherwise keep merging during the checks).
  int64_t t0 = NowNs();
  StopServer(*fx);
  DiskBytes(*fx, out);

  // Reopen the data directory behind a new server with background
  // compaction off, read the most recent kReadbackWindows windows of every
  // sensor back over the wire (Query and AggregateFast each), then check
  // every point of every sensor in-process.
  if (Status st = StartServer(fx.get(), /*compaction=*/false, /*fresh=*/false);
      !st.ok()) {
    out->errors.push_back("reopen: " + st.ToString());
    return;
  }
  Phase(out, "reopen", t0);
  t0 = NowNs();
  // Closed loop over the read-back windows for a quarter of the window's
  // length, whole rounds; metrics are one-second sub-window medians.
  std::vector<Lane> readers = MakeLanes(false);
  const int64_t read_start = NowNs();
  const int64_t read_deadline =
      read_start + static_cast<int64_t>(seconds / 4 * 1e9);
  RunLanes(readers, [&](size_t c, Lane& lane) {
    std::vector<TvPairDouble> points;
    uint64_t request = (c << 40) | (1ull << 39);
    while (NowNs() < read_deadline) {
      for (size_t i = c; i < kIngestSensors; i += kConnections) {
        const Timestamp end = fx->latest[i] + 1;
        for (Timestamp k = kReadbackWindows; k >= 1; --k) {
          const Timestamp lo = end - k * kReadbackWindow;
          if (lo < 0) continue;
          const Timestamp hi = lo + kReadbackWindow - 1;
          Query(*fx, *fx->clients[c], lane, i, lo, hi, ++request, &points);
          Aggregate(*fx, *fx->clients[c], lane, i, lo, hi, ++request);
        }
      }
    }
  });
  SubWindows(readers, read_start, NowNs()).Reads(&out->e2e);
  Absorb(readers, out, &records);
  Phase(out, "readback", t0);
  t0 = NowNs();
  CheckRecordsInto(records, fx->models, out);
  CheckEngineState(fx->engine(), fx->models, "reopened", out);
  Phase(out, "check", t0);
  if (main_log.spans().size() > 0) {
    out->spans.push_back(std::make_unique<SpanLog>(std::move(main_log)));
  }
  out->streams = std::move(fx->streams);
}

// ---------------------------------------------------------------------------
// dashboard_read: read-only closed loop over a store loaded in set-up with
// a repeatable file layout.

constexpr size_t kDashSensors = 48;
constexpr uint64_t kDashPoints = 100'000;  // per sensor
constexpr uint64_t kDashCompacted = 70'000;  // arrivals before Compact
constexpr size_t kDashHot = 8;  // 80% of reads go to these sensors
constexpr Timestamp kRewriteLen = 1000;

/// Set-up load: single-threaded, in-process `WriteBatch` calls (as the
/// mixes preload), explicit FlushAll/Compact steps. In-process, so that
/// setup_s times the engine's load and compaction rather than ~10 000
/// single-call round trips, whose time follows the host's wake-up latency.
Status LoadDashboard(Fixture& f, uint64_t seed) {
  std::vector<TvPairDouble> batch;
  const auto send = [&](const SensorModel& m) -> Status {
    return f.engine().WriteBatch(m.stream->name, batch);
  };
  const auto load_arrivals = [&](uint64_t end) -> Status {
    while (f.models[0].acked < end) {
      for (SensorModel& m : f.models) {
        const size_t n = std::min<uint64_t>(kBatch, end - m.acked);
        FillBatch(*m.stream, m.acked, n, &batch);
        if (Status st = send(m); !st.ok()) return st;
        m.acked += n;
      }
    }
    return f.engine().FlushAll();
  };
  if (Status st = load_arrivals(kDashCompacted); !st.ok()) return st;
  if (Status st = Settle(f.engine()); !st.ok()) return st;
  if (Status st = load_arrivals(kDashPoints); !st.ok()) return st;
  // Late rewrites of already-compacted times on every fourth sensor.
  backsort::Rng rng(seed ^ 0x5eedull);
  for (size_t i = 0; i < f.models.size(); i += 4) {
    SensorModel& m = f.models[i];
    for (uint32_t version = 1; version <= 2; ++version) {
      const auto lo = static_cast<Timestamp>(
          rng.NextBelow(kDashCompacted - kRewriteLen));
      m.rewrites.push_back({lo, lo + kRewriteLen - 1, version});
      for (Timestamp t = lo; t < lo + kRewriteLen;
           t += static_cast<Timestamp>(kBatch)) {
        batch.clear();
        for (Timestamp u = t; u < std::min(t + Timestamp(kBatch),
                                           lo + kRewriteLen);
             ++u) {
          batch.push_back({u, RewriteValue(m.stream->index, u, version)});
        }
        if (Status st = send(m); !st.ok()) return st;
      }
    }
  }
  return f.engine().FlushAll();
}

void RunDashboard(const RunArgs& args, double seconds, int setups,
                  bool traced, PassResult* out) {
  auto fx = SetUp(args, setups, out, [&](Fixture& f) {
    MakeStreams(&f, "dash", kDashSensors, kDashPoints, args.seed);
    if (Status st = StartServer(&f, /*compaction=*/false); !st.ok()) {
      return st;
    }
    return LoadDashboard(f, args.seed);
  });
  if (fx == nullptr) return;

  std::vector<Lane> lanes = MakeLanes(traced);
  Window window(*fx->server, traced, out);
  const int64_t deadline = window.start_ns + static_cast<int64_t>(seconds * 1e9);
  RunLanes(lanes, [&](size_t c, Lane& lane) {
    backsort::Rng rng(args.seed * 1000003ull + c);
    std::vector<TvPairDouble> points;
    uint64_t request = c << 40;
    const auto pick = [&] {
      return rng.NextDouble() < 0.8 ? rng.NextBelow(kDashHot)
                                    : rng.NextBelow(kDashSensors);
    };
    // Window start aligned to 500 so repeated ranges recur.
    const auto aligned = [&](uint64_t len) {
      return static_cast<Timestamp>(
          rng.NextBelow((kDashPoints - len) / kBatch + 1) * kBatch);
    };
    const auto recent = [&] {
      const Timestamp hi = kDashPoints - 1;
      Query(*fx, *fx->clients[c], lane, pick(), hi - 999, hi, ++request,
            &points);
    };
    const auto agg = [&](uint64_t len) {
      const Timestamp lo = aligned(len);
      Aggregate(*fx, *fx->clients[c], lane, pick(), lo,
                lo + static_cast<Timestamp>(len) - 1, ++request);
    };
    // One round: 3 recent + 1 narrow Query; AggregateFast over 1%, 3x10%,
    // 100% of the span, so each p50 sits inside one kind of request.
    while (NowNs() < deadline) {
      recent();
      agg(kDashPoints / 10);
      recent();
      agg(kDashPoints / 100);
      const Timestamp lo = aligned(1000);
      Query(*fx, *fx->clients[c], lane, pick(), lo, lo + 999, ++request,
            &points);
      agg(kDashPoints / 10);
      recent();
      agg(kDashPoints);
      agg(kDashPoints / 10);
    }
  });
  window.Close(*fx->server);
  window.CpuPerOp(lanes);
  SubWindows(lanes, window.start_ns, window.end_ns).Reads(&out->e2e);
  for (const Lane& l : lanes) out->points_read += l.points_returned;
  for (const Lane& l : lanes) {
    out->read_ops += l.ops[static_cast<size_t>(OpKind::kQuery)].size() +
                     l.ops[static_cast<size_t>(OpKind::kAgg)].size();
  }

  // Aggregate latency by range size: the sub-chunk cliff.
  {
    std::vector<double> by_len[3];
    for (const Lane& l : lanes) {
      // Records and latencies line up only when no aggregate failed.
      if (l.failed[static_cast<size_t>(OpKind::kAgg)] != 0) continue;
      size_t j = 0;
      for (const ReadRecord& r : l.records) {
        if (r.kind != OpKind::kAgg) continue;
        const Timestamp len = r.hi - r.lo + 1;
        const int slot = len == kDashPoints / 100 ? 0
                         : len == kDashPoints / 10 ? 1 : 2;
        // Latencies and records are appended in the same order.
        by_len[slot].push_back(l.ops[static_cast<size_t>(OpKind::kAgg)][j++].ms);
      }
    }
    const char* names[3] = {"1pct", "10pct", "100pct"};
    for (int s = 0; s < 3; ++s) {
      char line[96];
      std::snprintf(line, sizeof(line), "agg_%s_p50_ms %.4f", names[s],
                    Quantile(by_len[s], 0.5));
      out->info.push_back(line);
    }
  }
  std::vector<ReadRecord> records;
  Absorb(lanes, out, &records);
  CheckRecordsInto(records, fx->models, out);
  CheckFinalState(*fx, out);
  StopServer(*fx);
  DiskBytes(*fx, out);
  out->streams = std::move(fx->streams);
}

// ---------------------------------------------------------------------------
// paper_mix / paper_mix_read: the IoTDB-benchmark mix at write shares 0.75
// and 0.25 (two points of the paper's {0.25 .. 1.0} sweep), recent-window
// reads, background compaction on.

constexpr size_t kMixSensors = 32;
constexpr uint64_t kMixSegment = 32768;
constexpr uint64_t kMixPreload = 16384;  // arrivals per sensor in set-up
constexpr Timestamp kMixWindow = 5000;    // "time > latest - window"

/// `round` spells one round of a connection: W = WriteBatch to its next
/// sensor, Q = recent-window Query, A = recent-window AggregateFast, each
/// read on one of its sensors picked at random.
void RunMix(const RunArgs& args, double seconds, int setups, bool traced,
            const char* round, PassResult* out) {
  auto fx = SetUp(args, setups, out, [&](Fixture& f) {
    MakeStreams(&f, "mix", kMixSensors, kMixSegment, args.seed);
    if (Status st = StartServer(&f, /*compaction=*/true); !st.ok()) return st;
    std::vector<TvPairDouble> batch;
    while (f.models[0].acked < kMixPreload) {
      for (size_t i = 0; i < f.models.size(); ++i) {
        SensorModel& m = f.models[i];
        const size_t n = std::min<uint64_t>(kBatch, kMixPreload - m.acked);
        FillBatch(*m.stream, m.acked, n, &batch);
        if (Status st = f.engine().WriteBatch(m.stream->name, batch);
            !st.ok()) {
          return st;
        }
        m.acked += n;
        for (const TvPairDouble& p : batch) {
          f.latest[i] = std::max(f.latest[i], p.t);
        }
      }
    }
    return f.engine().FlushAll();
  });
  if (fx == nullptr) return;

  std::vector<Lane> lanes = MakeLanes(traced);
  Window window(*fx->server, traced, out);
  const int64_t deadline = window.start_ns + static_cast<int64_t>(seconds * 1e9);
  RunLanes(lanes, [&](size_t c, Lane& lane) {
    backsort::Rng rng(args.seed * 1000003ull + c);
    std::vector<TvPairDouble> batch;
    uint64_t request = c << 40;
    std::vector<size_t> own;
    for (size_t i = c; i < kMixSensors; i += kConnections) own.push_back(i);
    size_t next = 0;
    const auto write = [&] {
      WriteNext(*fx, *fx->clients[c], lane, own[next], kBatch, ++request,
                &batch);
      next = (next + 1) % own.size();
    };
    while (NowNs() < deadline) {
      for (const char* op = round; *op != '\0'; ++op) {
        if (*op == 'W') {
          write();
          continue;
        }
        const size_t i = own[rng.NextBelow(own.size())];
        const Timestamp lo = fx->latest[i] - kMixWindow + 1;
        if (*op == 'Q') {
          Query(*fx, *fx->clients[c], lane, i, lo, fx->latest[i], ++request,
                &batch);
        } else {
          Aggregate(*fx, *fx->clients[c], lane, i, lo, fx->latest[i],
                    ++request);
        }
      }
    }
  });
  window.Close(*fx->server);
  window.CpuPerOp(lanes);
  uint64_t written = 0;
  for (const Lane& l : lanes) {
    written += l.points_written;
    out->points_read += l.points_returned;
  }
  out->points_written = written;
  out->write_rtt_ms = Pooled(lanes, OpKind::kWrite);
  const SubWindows sub(lanes, window.start_ns, window.end_ns);
  sub.Writes(&out->e2e);
  sub.Reads(&out->e2e);
  for (const Lane& l : lanes) {
    out->read_ops += l.ops[static_cast<size_t>(OpKind::kQuery)].size() +
                     l.ops[static_cast<size_t>(OpKind::kAgg)].size();
  }

  std::vector<ReadRecord> records;
  Absorb(lanes, out, &records);
  CheckRecordsInto(records, fx->models, out);
  SpanLog main_log;
  SpanLog* log = traced ? &main_log : nullptr;
  {
    Scoped s(log, "engine.flush_all");
    if (Status st = fx->engine().FlushAll(); !st.ok()) {
      out->errors.push_back("flush: " + st.ToString());
    }
  }
  CheckFinalState(*fx, out);
  StopServer(*fx);
  DiskBytes(*fx, out);
  if (traced) out->spans.push_back(std::make_unique<SpanLog>(std::move(main_log)));
  out->streams = std::move(fx->streams);
}

}  // namespace

Snapshot TakeSnapshot(BacksortServer& server) {
  Snapshot s;
  s.engine = server.engine()->GetMetricsSnapshot();
  s.net = server.GetNetMetrics();
  s.cpu_s = CpuSeconds();
  return s;
}

PassResult RunPass(const RunArgs& args, double seconds, int setups,
                   bool traced) {
  PassResult out;
  if (args.workload == "ingest_ooo") {
    RunIngest(args, seconds, setups, traced, &out);
  } else if (args.workload == "dashboard_read") {
    RunDashboard(args, seconds, setups, traced, &out);
  } else if (args.workload == "paper_mix") {
    RunMix(args, seconds, setups, traced, "WWWQWWWA", &out);
  } else if (args.workload == "paper_mix_read") {
    RunMix(args, seconds, setups, traced, "WQAQWAQA", &out);
  } else {
    out.errors.push_back("unknown workload " + args.workload);
  }
  std::error_code ec;
  std::filesystem::remove_all(args.dir + "/" + args.workload + "-data", ec);
  return out;
}

}  // namespace perfbench
