// Input streams and the oracle. Expected answers are computed only from
// the generator (the arrival permutation and SignalValueAt) and the list
// of writes the benchmark sent, never from anything the program returned.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "disorder/series_generator.h"
#include "perfbench.h"

namespace perfbench {

Stream MakeStream(const std::string& name, uint32_t index, uint64_t n,
                  uint64_t seed) {
  Stream s;
  s.name = name;
  s.index = index;
  s.n = n;
  std::unique_ptr<backsort::DelayDistribution> delay;
  if (index % 2 == 0) {
    delay = std::make_unique<backsort::AbsNormalDelay>(1.0, 10.0);
  } else {
    delay = std::make_unique<backsort::LogNormalDelay>(1.0, 1.0);
  }
  s.delay = delay->Name();
  backsort::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
  const auto series =
      backsort::GenerateArrivalOrderedSeries<double>(n, *delay, rng);
  s.order.resize(n);
  s.pos.resize(n);
  for (uint64_t a = 0; a < n; ++a) {
    s.order[a] = static_cast<uint32_t>(series[a].t);
    s.pos[series[a].t] = static_cast<uint32_t>(a);
  }
  return s;
}

double BaseValue(uint32_t index, Timestamp t) {
  return backsort::SignalValueAt(static_cast<size_t>(t)) + 1000.0 * index;
}

double RewriteValue(uint32_t index, Timestamp t, uint32_t version) {
  return -BaseValue(index, t) - 0.25 * version;
}

void FillBatch(const Stream& s, uint64_t a, size_t count,
               std::vector<TvPairDouble>* out) {
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    const Timestamp t = s.TimeAt(a + i);
    (*out)[i] = {t, BaseValue(s.index, t)};
  }
}

double SensorModel::ValueAt(Timestamp t) const {
  for (auto it = rewrites.rbegin(); it != rewrites.rend(); ++it) {
    if (t >= it->lo && t <= it->hi) {
      return RewriteValue(stream->index, t, it->version);
    }
  }
  return BaseValue(stream->index, t);
}

void SensorModel::Expected(Timestamp lo, Timestamp hi, uint64_t k,
                           std::vector<TvPairDouble>* out) const {
  out->clear();
  // Every arrival below k has a time below the end of its segment.
  const auto end = static_cast<Timestamp>((k + stream->n - 1) / stream->n *
                                          stream->n);
  const Timestamp from = std::max<Timestamp>(lo, 0);
  const Timestamp to = std::min<Timestamp>(hi, end - 1);
  for (Timestamp t = from; t <= to; ++t) {
    if (stream->Arrived(t, k)) out->push_back({t, ValueAt(t)});
  }
}

void Digest::Add(const TvPairDouble& p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p.v, sizeof(bits));
  constexpr uint64_t kPrime = 1099511628211ULL;
  hash = (hash ^ static_cast<uint64_t>(p.t)) * kPrime;
  hash = (hash ^ bits) * kPrime;
  hash ^= hash >> 29;
  ++count;
}

Digest DigestOf(const std::vector<TvPairDouble>& points) {
  Digest d;
  for (const TvPairDouble& p : points) d.Add(p);
  return d;
}

Fold FoldOf(const std::vector<TvPairDouble>& points) {
  Fold f;
  RangeStats& s = f.stats;
  for (const TvPairDouble& p : points) {
    if (s.count == 0) {
      s.min = s.max = p.v;
      s.first_time = p.t;
      s.first = p.v;
    }
    s.min = std::min(s.min, p.v);
    s.max = std::max(s.max, p.v);
    s.sum += p.v;
    f.sum_abs += std::fabs(p.v);
    s.last_time = p.t;
    s.last = p.v;
    ++s.count;
  }
  return f;
}

std::string CheckAggregate(const RangeStats& got, const Fold& want) {
  const RangeStats& w = want.stats;
  char buf[256];
  if (got.count != w.count) {
    std::snprintf(buf, sizeof(buf), "count %zu != expected %zu", got.count,
                  w.count);
    return buf;
  }
  if (w.count == 0) return "";
  if (got.min != w.min || got.max != w.max) {
    std::snprintf(buf, sizeof(buf), "min/max %.17g/%.17g != %.17g/%.17g",
                  got.min, got.max, w.min, w.max);
    return buf;
  }
  if (got.first_time != w.first_time || got.first != w.first ||
      got.last_time != w.last_time || got.last != w.last) {
    std::snprintf(buf, sizeof(buf),
                  "first/last (%lld,%.17g)/(%lld,%.17g) != (%lld,%.17g)/"
                  "(%lld,%.17g)",
                  static_cast<long long>(got.first_time), got.first,
                  static_cast<long long>(got.last_time), got.last,
                  static_cast<long long>(w.first_time), w.first,
                  static_cast<long long>(w.last_time), w.last);
    return buf;
  }
  const double tol = 1e-9 * want.sum_abs + 1e-9;
  if (!(std::fabs(got.sum - w.sum) <= tol)) {
    std::snprintf(buf, sizeof(buf), "sum %.17g != %.17g (tol %.3g)", got.sum,
                  w.sum, tol);
    return buf;
  }
  return "";
}

std::string CheckPoints(const std::vector<TvPairDouble>& got,
                        const std::vector<TvPairDouble>& want) {
  char buf[200];
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i].t != want[i].t ||
        std::memcmp(&got[i].v, &want[i].v, sizeof(double)) != 0) {
      std::snprintf(buf, sizeof(buf),
                    "point %zu is (%lld,%.17g), expected (%lld,%.17g)", i,
                    static_cast<long long>(got[i].t), got[i].v,
                    static_cast<long long>(want[i].t), want[i].v);
      return buf;
    }
  }
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "%zu points, expected %zu", got.size(),
                  want.size());
    return buf;
  }
  return "";
}

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kWrite:
      return "write";
    case OpKind::kQuery:
      return "query";
    case OpKind::kAgg:
      return "agg";
  }
  return "?";
}

namespace {

struct RangeKey {
  uint32_t sensor;
  Timestamp lo, hi;
  uint64_t acked;
  bool operator==(const RangeKey& o) const {
    return sensor == o.sensor && lo == o.lo && hi == o.hi && acked == o.acked;
  }
};
struct RangeKeyHash {
  size_t operator()(const RangeKey& k) const {
    uint64_t h = k.sensor * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(k.lo) + 0x7f4a7c15 + (h << 6) + (h >> 2);
    h ^= static_cast<uint64_t>(k.hi) + 0x7f4a7c15 + (h << 6) + (h >> 2);
    h ^= k.acked + 0x7f4a7c15 + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

std::string Describe(const ReadRecord& r, const SensorModel& m,
                     const std::string& why) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s %s [%lld,%lld] after %llu arrivals: ",
                OpName(r.kind), m.stream->name.c_str(),
                static_cast<long long>(r.lo), static_cast<long long>(r.hi),
                static_cast<unsigned long long>(r.acked));
  return buf + why;
}

}  // namespace

std::vector<std::string> CheckRecords(const std::vector<ReadRecord>& records,
                                      const std::vector<SensorModel>& models,
                                      size_t threads, uint64_t* checked) {
  std::vector<std::vector<std::string>> errors(threads);
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      // Repeated ranges (full-span aggregates, aligned windows) are
      // expanded once per checker thread.
      std::unordered_map<RangeKey, Digest, RangeKeyHash> digests;
      std::unordered_map<RangeKey, Fold, RangeKeyHash> folds;
      std::vector<TvPairDouble> want;
      for (size_t i = w; i < records.size(); i += threads) {
        const ReadRecord& r = records[i];
        const SensorModel& m = models[r.sensor];
        const RangeKey key{r.sensor, r.lo, r.hi, r.acked};
        std::string why;
        if (r.kind == OpKind::kQuery) {
          auto it = digests.find(key);
          if (it == digests.end()) {
            m.Expected(r.lo, r.hi, r.acked, &want);
            it = digests.emplace(key, DigestOf(want)).first;
          }
          if (!(r.digest == it->second)) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "answer digest differs (%llu points, expected %llu)",
                          static_cast<unsigned long long>(r.digest.count),
                          static_cast<unsigned long long>(it->second.count));
            why = buf;
          }
        } else {
          auto it = folds.find(key);
          if (it == folds.end()) {
            m.Expected(r.lo, r.hi, r.acked, &want);
            it = folds.emplace(key, FoldOf(want)).first;
          }
          why = CheckAggregate(r.stats, it->second);
        }
        if (!why.empty() && errors[w].size() < 5) {
          errors[w].push_back(Describe(r, m, why));
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  *checked += done.load();
  std::vector<std::string> out;
  for (auto& e : errors) out.insert(out.end(), e.begin(), e.end());
  return out;
}

int NegativeControl() {
  const Stream s = MakeStream("control", 3, 4096, 99);
  SensorModel m{&s, 3000, {{100, 199, 1}}};
  std::vector<TvPairDouble> want;
  m.Expected(0, 4095, m.acked, &want);
  const Fold fold = FoldOf(want);
  // The uncorrupted answer must pass, or the control proves nothing.
  if (!CheckPoints(want, want).empty() ||
      !CheckAggregate(fold.stats, fold).empty()) {
    return -1;
  }
  int rejected = 0;
  std::vector<TvPairDouble> dropped = want;
  dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
  if (!CheckPoints(dropped, want).empty() &&
      !(DigestOf(dropped) == DigestOf(want))) {
    ++rejected;
  }
  std::vector<TvPairDouble> altered = want;
  altered[altered.size() / 3].v += 1e-9;
  if (!CheckPoints(altered, want).empty() &&
      !(DigestOf(altered) == DigestOf(want))) {
    ++rejected;
  }
  RangeStats miscounted = fold.stats;
  miscounted.count += 1;
  if (!CheckAggregate(miscounted, fold).empty()) ++rejected;
  return rejected;
}

}  // namespace perfbench
