// Per-layer metrics of a traced pass, all observed from outside the
// program: before/after deltas of the counters and stage histograms the
// engine and server export, replays of the workload's own inputs through
// the public functions of the lower layers, and self times of the spans
// the benchmark recorded around its calls.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "core/sorter_registry.h"
#include "encoding/encoding.h"
#include "net/protocol.h"
#include "perfbench.h"
#include "tvlist/tv_list.h"

namespace perfbench {

using backsort::HistogramBuckets;
using backsort::HistogramSnapshot;

int32_t SpanLog::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  stack_.pop_back();
}

namespace {

/// Histogram of what was recorded between two snapshots.
HistogramSnapshot Delta(const HistogramSnapshot& after,
                        const HistogramSnapshot& before) {
  HistogramSnapshot d;
  size_t first = d.buckets.size(), last = 0;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
    if (d.buckets[i] != 0) {
      first = std::min(first, i);
      last = i;
    }
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  if (d.count > 0) {
    d.min = HistogramBuckets::LowerBound(first);
    d.max = std::min(HistogramBuckets::UpperBound(last) - 1, after.max);
  }
  return d;
}

/// Quantile of a histogram delta in nanoseconds, scaled to `unit_ns`.
double Q(const HistogramSnapshot& after, const HistogramSnapshot& before,
         double q, double unit_ns) {
  return Delta(after, before).ValueAtQuantile(q) / unit_ns;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

size_t Net(backsort::MsgType t) { return backsort::MsgTypeIndex(t); }

struct Replay {
  uint64_t points = 0;
  int64_t backward_ns = 0;
  int64_t tim_ns = 0;
  uint64_t compares = 0;
  uint64_t moves = 0;
  std::vector<double> block_sizes;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  uint64_t encoded_bytes = 0;
  int64_t codec_ns = 0;
  uint64_t codec_points = 0;
};

/// Replays flush-sized arrival slices of every stream through
/// SortWith(Backward) / SortWith(Tim) on TVList copies, TS_2DIFF + Gorilla
/// page encode/decode of the sorted slices, and the BSN1 WriteBatch codec
/// over 500-point batches.
Replay RunReplays(const std::vector<std::unique_ptr<Stream>>& streams,
                  size_t slice_points, SpanLog* log) {
  using backsort::TVList;
  using backsort::TVListSortable;
  Replay r;
  const backsort::EngineOptions pinned = PinnedEngineOptions("", false);
  const size_t page = pinned.points_per_page;
  constexpr uint64_t kPerStream = 32768;
  std::vector<TvPairDouble> arrival;
  for (const auto& s : streams) {
    const uint64_t total = std::min<uint64_t>(kPerStream, s->n);
    for (uint64_t a = 0; a < total; a += slice_points) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(slice_points, total - a));
      FillBatch(*s, a, n, &arrival);
      TVList<double> back, tim;
      for (const TvPairDouble& p : arrival) {
        back.Put(p.t, p.v);
        tim.Put(p.t, p.v);
      }
      backsort::BackwardSortStats stats;
      TVListSortable<double> back_seq(back), tim_seq(tim);
      {
        Scoped span(log, "core.backward_sort");
        const int64_t t0 = NowNs();
        backsort::SortWith(backsort::SorterId::kBackward, back_seq,
                           pinned.backward_options, &stats);
        r.backward_ns += NowNs() - t0;
      }
      {
        Scoped span(log, "core.timsort");
        const int64_t t0 = NowNs();
        backsort::SortWith(backsort::SorterId::kTim, tim_seq);
        r.tim_ns += NowNs() - t0;
      }
      r.compares += back_seq.counters().comparisons;
      r.moves += back_seq.counters().moves;
      r.block_sizes.push_back(static_cast<double>(stats.chosen_block_size));
      r.points += n;

      // Page-wise encode then decode of the sorted slice.
      std::vector<int64_t> ts, ts_out;
      std::vector<double> vs, vs_out;
      for (size_t p0 = 0; p0 < n; p0 += page) {
        ts.clear();
        vs.clear();
        for (size_t i = p0; i < std::min(n, p0 + page); ++i) {
          ts.push_back(back.TimeAt(i));
          vs.push_back(back.ValueAt(i));
        }
        backsort::ByteBuffer tbuf, vbuf;
        {
          Scoped span(log, "encoding.encode");
          const int64_t t0 = NowNs();
          (void)backsort::EncodeI64(backsort::Encoding::kTs2Diff, ts, &tbuf);
          (void)backsort::EncodeF64(backsort::Encoding::kGorilla, vs, &vbuf);
          r.encode_ns += NowNs() - t0;
        }
        r.encoded_bytes += tbuf.size() + vbuf.size();
        backsort::ByteReader tr(tbuf.data()), vr(vbuf.data());
        {
          Scoped span(log, "encoding.decode");
          const int64_t t0 = NowNs();
          (void)backsort::DecodeI64(backsort::Encoding::kTs2Diff, &tr,
                                    ts.size(), &ts_out);
          (void)backsort::DecodeF64(backsort::Encoding::kGorilla, &vr,
                                    vs.size(), &vs_out);
          r.decode_ns += NowNs() - t0;
        }
      }

      // Wire codec over the slice's 500-point batches.
      backsort::ByteBuffer frame;
      std::vector<TvPairDouble> scratch;
      backsort::WriteBatchView view;
      for (size_t b = 0; b < n; b += kBatch) {
        const size_t count = std::min(kBatch, n - b);
        frame.Clear();
        Scoped span(log, "net.codec");
        const int64_t t0 = NowNs();
        backsort::EncodeWriteBatchRequest(s->name, arrival.data() + b, count,
                                          &frame);
        (void)backsort::DecodeWriteBatchView(frame.data().data(), frame.size(),
                                             &scratch, &view);
        r.codec_ns += NowNs() - t0;
        r.codec_points += view.count;
      }
    }
  }
  return r;
}

double MedianValue(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Writes every span to `path` and returns per-name self times (ns): a
/// span's duration minus what its children cover.
std::map<std::string, int64_t> SpanSelfTimes(
    const std::vector<std::unique_ptr<SpanLog>>& logs,
    const std::string& path) {
  std::map<std::string, int64_t> self;
  std::ofstream out(path);
  out << "thread\tspan\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (size_t th = 0; th < logs.size(); ++th) {
    const std::vector<Span>& spans = logs[th]->spans();
    std::vector<int64_t> child(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      self[s.name] += (s.end_ns - s.start_ns) - child[i];
      out << th << '\t' << i << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.parent << '\t' << s.request << '\n';
    }
  }
  return self;
}

}  // namespace

MetricMap LayerMetrics(const RunArgs& args, PassResult& p) {
  MetricMap m;
  const auto put = [&m](const std::string& name, double v,
                        const std::string& unit) { m[name] = {v, unit}; };
  const auto& eb = p.before.engine;
  const auto& ea = p.after.engine;
  const auto& nb = p.before.net;
  const auto& na = p.after.net;
  constexpr double kMs = 1e6, kUs = 1e3;
  using backsort::MsgType;

  // net
  const size_t w = Net(MsgType::kWriteBatch);
  const double write_exec =
      Q(na.request_duration[w], nb.request_duration[w], 0.5, kMs);
  put("net.write_exec_ms_p50", write_exec, "ms");
  {
    std::vector<double> rtt = p.write_rtt_ms;
    std::sort(rtt.begin(), rtt.end());
    const double rtt_p50 = rtt.empty() ? 0.0 : rtt[rtt.size() / 2];
    put("net.write_wire_ms_p50", rtt.empty() ? 0.0 : rtt_p50 - write_exec,
        "ms");
  }
  const size_t qi = Net(MsgType::kQuery), ai = Net(MsgType::kAggregateFast);
  put("net.query_exec_ms_p50",
      Q(na.request_duration[qi], nb.request_duration[qi], 0.5, kMs), "ms");
  put("net.agg_exec_ms_p50",
      Q(na.request_duration[ai], nb.request_duration[ai], 0.5, kMs), "ms");
  put("net.bytes_in_per_point",
      Ratio(static_cast<double>(na.bytes_in - nb.bytes_in),
            static_cast<double>(p.points_written)),
      "B/point");
  put("net.overload_rejections",
      static_cast<double>(na.overload_rejections - nb.overload_rejections),
      "count");
  put("net.read_pauses", static_cast<double>(na.read_pauses - nb.read_pauses),
      "count");

  // engine write path
  put("engine.enqueue_us_p50",
      Q(ea.stages.enqueue, eb.stages.enqueue, 0.5, kUs), "us");
  put("engine.batch_apply_us_p50",
      Q(ea.stages.batch_apply, eb.stages.batch_apply, 0.5, kUs), "us");
  put("engine.flush_count",
      static_cast<double>(ea.total_completed_flushes() -
                          eb.total_completed_flushes()),
      "count");
  {
    // Flush traces published in the window (each shard keeps a bounded
    // ring, so this is the newest flushes of the window).
    uint64_t points = 0, flushes = 0;
    int64_t sort_ns = 0, encode_ns = 0;
    for (const auto& shard : ea.shards) {
      uint64_t seen = 0;
      for (const auto& old : eb.shards[shard.shard_id].recent_traces) {
        seen = std::max<uint64_t>(seen, old.seq + 1);
      }
      for (const auto& t : shard.recent_traces) {
        if (t.seq < seen) continue;
        points += t.points;
        sort_ns += t.sort_ns;
        encode_ns += t.encode_ns;
        ++flushes;
      }
    }
    put("engine.points_per_flush", Ratio(points, flushes), "points");
    put("engine.flush_sort_ms_per_mpts", Ratio(sort_ns / kMs, points / 1e6),
        "ms/Mpts");
    put("engine.flush_encode_ms_per_mpts",
        Ratio(encode_ns / kMs, points / 1e6), "ms/Mpts");
  }
  put("engine.flush_queue_wait_ms_p50",
      Q(ea.stages.queue_wait, eb.stages.queue_wait, 0.5, kMs), "ms");
  put("engine.flush_seal_ms_p50", Q(ea.stages.seal, eb.stages.seal, 0.5, kMs),
      "ms");
  put("engine.flush_ms_p99", Q(ea.stages.flush, eb.stages.flush, 0.99, kMs),
      "ms");

  // engine read path
  const auto& qa = ea.query_stages;
  const auto& qb = eb.query_stages;
  put("query.snapshot_us_p50", Q(qa.snapshot, qb.snapshot, 0.5, kUs), "us");
  put("query.prune_us_p50", Q(qa.prune, qb.prune, 0.5, kUs), "us");
  put("query.read_us_p50", Q(qa.read, qb.read, 0.5, kUs), "us");
  put("query.merge_us_p50", Q(qa.merge, qb.merge, 0.5, kUs), "us");
  const double queries = static_cast<double>(ea.queries - eb.queries);
  put("query.files_opened_per_op",
      Ratio(ea.query_files_opened - eb.query_files_opened, queries),
      "files/op");
  put("query.files_pruned_per_op",
      Ratio(ea.query_files_pruned - eb.query_files_pruned, queries),
      "files/op");
  const auto& ga = ea.agg_stages;
  const auto& gb = eb.agg_stages;
  put("agg.plan_us_p50", Q(ga.plan, gb.plan, 0.5, kUs), "us");
  put("agg.stats_us_p50", Q(ga.stats, gb.stats, 0.5, kUs), "us");
  put("agg.decode_us_p50", Q(ga.decode, gb.decode, 0.5, kUs), "us");
  put("agg.merge_us_p50", Q(ga.merge, gb.merge, 0.5, kUs), "us");
  {
    const double hits = ea.agg_stats_hits - eb.agg_stats_hits;
    const double misses = ea.agg_stats_misses - eb.agg_stats_misses;
    put("agg.stats_hit_ratio", Ratio(hits, hits + misses), "ratio");
  }

  // chunk cache
  {
    const double hits = ea.cache.hits - eb.cache.hits;
    const double misses = ea.cache.misses - eb.cache.misses;
    const double fh = ea.cache.footer_hits - eb.cache.footer_hits;
    const double fm = ea.cache.footer_misses - eb.cache.footer_misses;
    put("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
    put("cache.footer_hit_ratio", Ratio(fh, fh + fm), "ratio");
    put("cache.evictions_per_op",
        Ratio(ea.cache.evictions - eb.cache.evictions,
              static_cast<double>(p.read_ops)),
        "count/op");
    put("cache.resident_mib", ea.cache.bytes / 1048576.0, "MiB");
  }

  // compaction / tsfile
  put("compaction.jobs",
      static_cast<double>(ea.compaction_jobs - eb.compaction_jobs), "count");
  put("compaction.rewrite_bytes_per_point",
      Ratio(ea.compaction_output_bytes - eb.compaction_output_bytes,
            static_cast<double>(p.points_written)),
      "B/point");
  put("compaction.merge_ms_total",
      (ea.compaction_stages.merge.sum - eb.compaction_stages.merge.sum) / kMs,
      "ms");
  put("tsfile.sealed_files_end", static_cast<double>(ea.sealed_files),
      "count");

  // process
  put("proc.cpu_s_per_mpts",
      Ratio(p.after.cpu_s - p.before.cpu_s,
            (p.points_written + p.points_read) / 1e6),
      "s/Mpts");

  // Replays of the workload's own inputs: slices the size of one
  // sensor's share of a memtable flush.
  SpanLog replay_log;
  const backsort::EngineOptions pinned = PinnedEngineOptions("", false);
  const size_t slice = std::max<size_t>(
      pinned.memtable_flush_threshold /
          std::max<size_t>(p.streams.size(), 1),
      kBatch);
  const Replay r = RunReplays(p.streams, slice, &replay_log);
  put("core.backward_sort_ms_per_mpts", Ratio(r.backward_ns / kMs, r.points / 1e6),
      "ms/Mpts");
  put("core.timsort_ms_per_mpts", Ratio(r.tim_ns / kMs, r.points / 1e6),
      "ms/Mpts");
  put("core.compares_per_point", Ratio(r.compares, r.points), "count");
  put("core.moves_per_point", Ratio(r.moves, r.points), "count");
  put("core.block_size", MedianValue(r.block_sizes), "count");
  put("encoding.encode_ns_per_point", Ratio(r.encode_ns, r.points), "ns");
  put("encoding.decode_ns_per_point", Ratio(r.decode_ns, r.points), "ns");
  put("encoding.bytes_per_point", Ratio(r.encoded_bytes, r.points), "B/point");
  put("net.frame_codec_ns_per_point", Ratio(r.codec_ns, r.codec_points), "ns");

  // Span self times (the replay spans included).
  p.spans.push_back(std::make_unique<SpanLog>(std::move(replay_log)));
  const std::map<std::string, int64_t> self = SpanSelfTimes(
      p.spans, args.dir + "/trace-" + args.workload + ".spans.tsv");
  uint64_t span_count = 0, ops = 0;
  for (const auto& log : p.spans) {
    span_count += log->spans().size();
    for (const Span& s : log->spans()) {
      if (s.parent < 0 && std::string(s.name).rfind("op.", 0) == 0) ++ops;
    }
  }
  int64_t bench_ns = 0, net_ns = 0, op_ns = 0;
  for (const auto& [name, ns] : self) {
    if (name.rfind("op.", 0) == 0 || name.rfind("bench.", 0) == 0) {
      bench_ns += ns;
      op_ns += ns;
    } else if (name.rfind("net.client.", 0) == 0) {
      net_ns += ns;
      op_ns += ns;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "self_ms %s %.3f", name.c_str(),
                  ns / kMs);
    p.info.push_back(line);
  }
  put("trace.spans", static_cast<double>(span_count), "count");
  put("trace.bench_self_us_per_op", Ratio(bench_ns / kUs, ops), "us");
  put("trace.net_self_share", Ratio(net_ns, op_ns), "ratio");
  return m;
}

}  // namespace perfbench
