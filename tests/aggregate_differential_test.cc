// Brute-force differential test for the statistics-driven aggregation plan.
//
// For several disorder distributions (src/disorder/) and both footer modes
// (BSTF2 statistics on, stat-less BSTF1 legacy), random workloads are
// ingested through the engine and AggregateFast is compared bit-for-bit
// (EXPECT_NEAR only on the FP sum, which legally reassociates across pages)
// against a full-decode reference computed from the raw written points. The
// statistics plan must be an optimization, never an approximation.

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/delay_distribution.h"
#include "disorder/series_generator.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

// Reference aggregate over the raw (timestamp, value) pairs, applying the
// documented NaN contract independently of any engine code: NaN counts and
// may be first/last, but never reaches min/max/sum.
struct RefAgg {
  size_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  Timestamp first_time = 0;
  double first = 0;
  Timestamp last_time = 0;
  double last = 0;
};

RefAgg BruteForce(const std::vector<Timestamp>& ts,
                  const std::vector<double>& vs, Timestamp t_min,
                  Timestamp t_max) {
  // Last write wins: a later arrival of a timestamp replaces the earlier.
  std::map<Timestamp, double> survivors;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] >= t_min && ts[i] <= t_max) survivors[ts[i]] = vs[i];
  }
  RefAgg r;
  for (const auto& [t, v] : survivors) {
    if (r.count == 0) {
      r.first_time = t;
      r.first = v;
    }
    r.last_time = t;
    r.last = v;
    ++r.count;
    if (!std::isnan(v)) {
      r.min = std::min(r.min, v);
      r.max = std::max(r.max, v);
      r.sum += v;
    }
  }
  return r;
}

void ExpectSameValue(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what;
  } else {
    EXPECT_DOUBLE_EQ(got, want) << what;
  }
}

class AggregateDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::unique_ptr<StorageEngine> MakeEngine(const std::string& tag,
                                            bool footer_stats,
                                            SorterId sorter) {
    dir_ = std::filesystem::temp_directory_path() /
           ("agg_diff_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(dir_);
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.sorter = sorter;
    opt.memtable_flush_threshold = 3'000;  // several sealed files per run
    opt.async_flush = false;
    opt.footer_stats = footer_stats;
    auto engine = std::make_unique<StorageEngine>(opt);
    EXPECT_TRUE(engine->Open().ok());
    return engine;
  }

  // Ingests a disordered stream, then checks AggregateFast against the
  // brute-force reference over a sweep of ranges: full coverage (tier 1
  // when stats are on), random partial ranges (tier 2 page decode), and
  // degenerate/out-of-range probes. `leave_tail_in_memory` keeps the last
  // points unflushed so the exact merge fallback (tier 3) is diffed too.
  // `rewrite_every` > 0 rewrites, after every that-many points, the
  // timestamp written two points earlier with a new value — duplicates
  // inside one memtable, mostly above the watermark; stable sorters make
  // the last write the survivor.
  void RunWorkload(const std::string& tag, const DelayDistribution& delay,
                   bool footer_stats, bool leave_tail_in_memory,
                   uint64_t seed, SorterId sorter = SorterId::kBackward,
                   size_t rewrite_every = 0) {
    Rng rng(seed);
    const size_t n = 20'000;
    auto engine = MakeEngine(tag, footer_stats, sorter);
    const std::vector<Timestamp> arrivals =
        GenerateArrivalOrderedTimestamps(n, delay, rng);
    std::vector<Timestamp> ts;  // every write in arrival order
    std::vector<double> vs;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      ts.push_back(arrivals[i]);
      vs.push_back(SignalValueAt(static_cast<size_t>(arrivals[i])));
      // Sprinkle NaN to exercise the exclusion contract on every tier.
      if (ts.back() % 997 == 0) vs.back() = std::nan("");
      if (rewrite_every > 0 && i >= 2 && i % rewrite_every == 0) {
        ts.push_back(arrivals[i - 2]);
        vs.push_back(-1.0 - static_cast<double>(i));
      }
    }
    for (size_t i = 0; i < ts.size(); ++i) {
      ASSERT_TRUE(engine->Write("s", ts[i], vs[i]).ok());
    }
    if (leave_tail_in_memory) {
      // Do not flush: disordered working memtables shadow the files, so
      // every probe routes through the tier-3 exact merge.
    } else {
      ASSERT_TRUE(engine->FlushAll().ok());
    }

    std::vector<std::pair<Timestamp, Timestamp>> ranges = {
        {0, static_cast<Timestamp>(n - 1)},      // full coverage
        {0, static_cast<Timestamp>(2 * n)},      // over-covering
        {static_cast<Timestamp>(n), static_cast<Timestamp>(2 * n)},  // empty
        {500, 499},                              // inverted => zero-count
        {42, 42},                                // single point
    };
    for (int i = 0; i < 12; ++i) {  // random partial ranges
      const Timestamp a = static_cast<Timestamp>(rng.NextBelow(n));
      const Timestamp b = static_cast<Timestamp>(rng.NextBelow(n));
      ranges.emplace_back(std::min(a, b), std::max(a, b));
    }

    ExpectMatchesBruteForce(engine.get(), ts, vs, ranges, tag);
  }

  // AggregateFast against the brute-force reference over every range.
  static void ExpectMatchesBruteForce(
      StorageEngine* engine, const std::vector<Timestamp>& ts,
      const std::vector<double>& vs,
      const std::vector<std::pair<Timestamp, Timestamp>>& ranges,
      const std::string& tag) {
    for (const auto& [t_min, t_max] : ranges) {
      const RefAgg want = BruteForce(ts, vs, t_min, t_max);
      TsFileReader::RangeStats got;
      bool used_fast = false;
      ASSERT_TRUE(
          engine->AggregateFast("s", t_min, t_max, &got, &used_fast).ok())
          << tag << " [" << t_min << "," << t_max << "]";
      const std::string what = tag + " [" + std::to_string(t_min) + "," +
                               std::to_string(t_max) + "]";
      ASSERT_EQ(got.count, want.count) << what;
      if (want.count == 0) continue;
      ExpectSameValue(got.min, want.min, what + " min");
      ExpectSameValue(got.max, want.max, what + " max");
      EXPECT_NEAR(got.sum, want.sum,
                  1e-9 * std::max(1.0, std::abs(want.sum)))
          << what;
      EXPECT_EQ(got.first_time, want.first_time) << what;
      EXPECT_EQ(got.last_time, want.last_time) << what;
      ExpectSameValue(got.first, want.first, what + " first");
      ExpectSameValue(got.last, want.last, what + " last");
    }
  }

  std::filesystem::path dir_;
};

TEST_F(AggregateDifferentialTest, OrderedStreamStatsOn) {
  ConstantDelay delay(0.0);
  RunWorkload("ordered_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 1);
}

TEST_F(AggregateDifferentialTest, OrderedStreamStatsOff) {
  ConstantDelay delay(0.0);
  RunWorkload("ordered_off", delay, /*footer_stats=*/false,
              /*leave_tail_in_memory=*/false, 2);
}

TEST_F(AggregateDifferentialTest, AbsNormalDisorderStatsOn) {
  AbsNormalDelay delay(1.0, 10.0);
  RunWorkload("absnormal_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 3);
}

TEST_F(AggregateDifferentialTest, AbsNormalDisorderStatsOff) {
  AbsNormalDelay delay(1.0, 10.0);
  RunWorkload("absnormal_off", delay, /*footer_stats=*/false,
              /*leave_tail_in_memory=*/false, 4);
}

TEST_F(AggregateDifferentialTest, ExponentialDisorderStatsOn) {
  ExponentialDelay delay(0.05);
  RunWorkload("exp_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 5);
}

TEST_F(AggregateDifferentialTest, HeavyTailDisorderStatsOn) {
  MixtureDelay delay(std::make_unique<ConstantDelay>(0.0),
                     std::make_unique<ExponentialDelay>(0.01), 0.05,
                     "calm+tail");
  RunWorkload("heavy_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 6);
}

TEST_F(AggregateDifferentialTest, SameTimestampRewritesStatsOn) {
  // In-order stream: the rewrites stay in sequence memtables, so the
  // statistics tiers see the flushed survivors.
  ConstantDelay delay(0.0);
  RunWorkload("rewrites_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 8, SorterId::kTim,
              /*rewrite_every=*/7);
}

TEST_F(AggregateDifferentialTest, InMemoryTailForcesExactMergeTier) {
  AbsNormalDelay delay(1.0, 25.0);
  RunWorkload("tier3", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/true, 7);
}

// The paper's steady state under late arrivals: compacted sequence files,
// then one sparse unsequence file whose late points fill holes between
// sequence points, plus one true rewrite of a sealed timestamp. Pages and
// chunks no late point touches fold from their statistics; only the pages
// a late point lands in (and first/last contributors) are decoded.
TEST_F(AggregateDifferentialTest, SparseLateArrivalsFoldUntouchedPages) {
  const size_t n = 40'000;
  auto engine = MakeEngine("sparse_late", /*footer_stats=*/true,
                           SorterId::kBackward);
  std::vector<Timestamp> ts;
  std::vector<double> vs;
  auto write = [&](Timestamp t, double v) {
    ts.push_back(t);
    vs.push_back(v);
    ASSERT_TRUE(engine->Write("s", t, v).ok());
  };
  // In order, with a hole at every t % 50 == 25.
  for (Timestamp t = 0; t < static_cast<Timestamp>(n); ++t) {
    if (t % 50 == 25) continue;
    write(t, SignalValueAt(static_cast<size_t>(t)));
  }
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_TRUE(engine->Compact().ok());
  // Late points into every 80th hole (one per 4000 times), and one
  // rewrite of a sealed point: all below the watermark, so unsequence.
  for (Timestamp t = 1'025; t < static_cast<Timestamp>(n); t += 4'000) {
    write(t, -1.0 - static_cast<double>(t));
  }
  write(12'345, 1e6);
  ASSERT_TRUE(engine->FlushAll().ok());
  ASSERT_GE(engine->sealed_file_count(), 2u);

  Rng rng(17);
  std::vector<std::pair<Timestamp, Timestamp>> ranges = {
      {0, static_cast<Timestamp>(n - 1)}};
  for (int i = 0; i < 16; ++i) {
    const Timestamp a = static_cast<Timestamp>(rng.NextBelow(n));
    const Timestamp b = static_cast<Timestamp>(rng.NextBelow(n));
    ranges.emplace_back(std::min(a, b), std::max(a, b));
  }
  // Pages the ranges cover: at least their points over the page size.
  const size_t page = EngineOptions().points_per_page;
  size_t covered = 0;
  for (const auto& [lo, hi] : ranges) {
    covered += BruteForce(ts, vs, lo, hi).count / page;
  }
  const EngineMetricsSnapshot before = engine->GetMetricsSnapshot();
  ExpectMatchesBruteForce(engine.get(), ts, vs, ranges, "sparse_late");
  const EngineMetricsSnapshot after = engine->GetMetricsSnapshot();
  EXPECT_GT(after.agg_stats_hits - before.agg_stats_hits, 0u);
  EXPECT_LT(after.agg_stats_misses - before.agg_stats_misses, covered);
}

// A workload flushed without footer statistics (the seed BSTF1 format) and
// re-opened by a stats-aware engine must keep aggregating correctly through
// the decode fallback — the legacy-format compatibility pin.
TEST_F(AggregateDifferentialTest, LegacyStatlessFilesSurviveReopen) {
  // Ordered stream: every flushed file is a sequence file, so the planned
  // path (used_fast_path == true) must engage via the decode fallback —
  // disordered stat-less workloads are diffed by the *StatsOff cases above.
  const size_t n = 10'000;
  Rng rng(11);
  ConstantDelay delay(0.0);
  const std::vector<Timestamp> ts =
      GenerateArrivalOrderedTimestamps(n, delay, rng);
  dir_ = std::filesystem::temp_directory_path() /
         ("agg_diff_" + std::to_string(::getpid()) + "_legacy");
  std::filesystem::remove_all(dir_);

  EngineOptions opt;
  opt.data_dir = dir_.string();
  opt.sorter = SorterId::kBackward;
  opt.memtable_flush_threshold = 3'000;
  opt.async_flush = false;
  opt.footer_stats = false;  // write seed-format files
  std::vector<double> vs(ts.size());
  {
    StorageEngine writer_engine(opt);
    ASSERT_TRUE(writer_engine.Open().ok());
    for (size_t i = 0; i < ts.size(); ++i) {
      vs[i] = SignalValueAt(static_cast<size_t>(ts[i]));
      ASSERT_TRUE(writer_engine.Write("s", ts[i], vs[i]).ok());
    }
    ASSERT_TRUE(writer_engine.FlushAll().ok());
  }

  // Reopen with stats enabled: the existing files stay stat-less.
  opt.footer_stats = true;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  const RefAgg want = BruteForce(ts, vs, 0, static_cast<Timestamp>(n));
  TsFileReader::RangeStats got;
  bool used_fast = false;
  ASSERT_TRUE(
      engine.AggregateFast("s", 0, static_cast<Timestamp>(n), &got, &used_fast)
          .ok());
  EXPECT_TRUE(used_fast) << "decode fallback is still the planned path";
  ASSERT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  EXPECT_NEAR(got.sum, want.sum, 1e-9 * std::abs(want.sum));
  // Every chunk was a stats miss: no BSTF2 footers exist to hit.
  const auto snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.agg_stats_hits, 0u);
  EXPECT_GT(snap.agg_stats_misses, 0u);
}

}  // namespace
}  // namespace backsort
