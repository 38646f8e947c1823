// Table-driven tests of the engine's one last-write-wins merge
// (engine/merge_cursor.h). The fixed cases keep the test names they had
// under the binary-heap query merge, so their ids are stable; the
// randomized cases diff the cursor against std::map keep-last references
// over memtable-like runs and over sealed chunks read page by page with
// range bounds that fall mid-page; the statistics-fold rows pin when
// Aggregate may fold a chunk or page whole and what it reads otherwise.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/file_registry.h"
#include "engine/merge_cursor.h"
#include "tsfile/tsfile.h"

namespace backsort {
namespace {

using Points = std::vector<TvPairDouble>;

std::shared_ptr<const DecodedPage> Block(const Points& points) {
  auto block = std::make_shared<DecodedPage>();
  for (const TvPairDouble& p : points) {
    block->ts.push_back(p.t);
    block->values.push_back(p.v);
  }
  return block;
}

/// Merges `runs` (oldest first) over the whole time line.
Points Merge(const std::vector<Points>& runs, bool dedup) {
  MergeCursor cursor;
  for (const Points& run : runs) cursor.AddRun(Block(run));
  Points out;
  EXPECT_TRUE(cursor
                  .ForEach(dedup, [&](Timestamp t, double v) {
                    out.push_back({t, v});
                  })
                  .ok());
  return out;
}

// --- fixed cases ------------------------------------------------------------

struct MergeCase {
  const char* name;
  std::vector<Points> runs;  // oldest (lowest rank) first
  bool dedup;
  Points want;
};

const std::vector<MergeCase>& Cases() {
  static const std::vector<MergeCase> cases = {
      {"NoSources", {}, true, {}},
      {"EmptyInputs", {{}, {}}, true, {}},
      {"SingleRunPassThrough", {{{1, 1.0}, {2, 2.0}, {5, 5.0}}}, false,
       {{1, 1.0}, {2, 2.0}, {5, 5.0}}},
      {"InterleavesSortedRuns",
       {{{1, 1.0}, {4, 4.0}, {7, 7.0}},
        {{2, 2.0}, {5, 5.0}},
        {{0, 0.0}, {3, 3.0}, {6, 6.0}, {8, 8.0}}},
       true,
       {{0, 0.0}, {1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0}, {5, 5.0}, {6, 6.0},
        {7, 7.0}, {8, 8.0}}},
      // The newest run wins a shared timestamp.
      {"DedupKeepsHighestPriority",
       {{{1, 12.0}}, {{1, 10.0}, {2, 20.0}}, {{1, 11.0}, {3, 30.0}}},
       true,
       {{1, 11.0}, {2, 20.0}, {3, 30.0}}},
      {"DedupWithinOneRunKeepsLastElement",
       {{{5, 1.0}, {5, 2.0}, {5, 3.0}}},
       true,
       {{5, 3.0}}},
      // Without dedup equal timestamps come out oldest run first.
      {"NoDedupKeepsAll", {{{1, 10.0}}, {{1, 11.0}}}, false,
       {{1, 10.0}, {1, 11.0}}},
      // A newer run's tie inside an older run's drained span.
      {"TieInsideOlderRunSpan",
       {{{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0}}, {{3, 30.0}}},
       true,
       {{1, 1.0}, {2, 2.0}, {3, 30.0}, {4, 4.0}}},
  };
  return cases;
}

class MergeCaseTest : public ::testing::Test {
 public:
  explicit MergeCaseTest(const MergeCase* c) : case_(c) {}
  void TestBody() override {
    const Points got = Merge(case_->runs, case_->dedup);
    ASSERT_EQ(got.size(), case_->want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, case_->want[i].t) << "i=" << i;
      EXPECT_DOUBLE_EQ(got[i].v, case_->want[i].v) << "i=" << i;
    }
  }

 private:
  const MergeCase* case_;
};

// One test per table row, named after the row.
const bool kCasesRegistered = [] {
  for (const MergeCase& c : Cases()) {
    ::testing::RegisterTest("MergeRuns", c.name, nullptr, nullptr, __FILE__,
                            __LINE__,
                            [&c]() -> ::testing::Test* {
                              return new MergeCaseTest(&c);
                            });
  }
  return true;
}();

// --- randomized: memtable-like runs ----------------------------------------

TEST(MergeRuns, RandomizedAgainstReference) {
  Rng rng(9);
  for (int round = 0; round < 30; ++round) {
    const size_t k = 1 + rng.NextBelow(6);
    std::vector<Points> runs(k);
    // Keep-last reference: runs are applied oldest first, each in order,
    // so a later write to a timestamp overwrites an earlier one.
    std::map<Timestamp, double> best;
    for (size_t r = 0; r < k; ++r) {
      Timestamp t = 0;
      const size_t len = rng.NextBelow(100);
      for (size_t i = 0; i < len; ++i) {
        t += static_cast<Timestamp>(rng.NextBelow(3));  // duplicates likely
        const double v = static_cast<double>(rng.NextBelow(1000));
        runs[r].push_back({t, v});
        best[t] = v;
      }
    }
    const Points out = Merge(runs, true);
    ASSERT_EQ(out.size(), best.size()) << "round " << round;
    size_t i = 0;
    for (const auto& [t, v] : best) {
      ASSERT_EQ(out[i].t, t) << "round " << round;
      ASSERT_DOUBLE_EQ(out[i].v, v) << "round " << round << " t=" << t;
      ++i;
    }
  }
}

TEST(MergeRuns, LoserTreeMatchesSortedMerge) {
  std::mt19937_64 rng(20260808);
  for (size_t k = 1; k <= 9; ++k) {
    std::vector<Points> runs(k);
    std::vector<Timestamp> all;
    for (Points& run : runs) {
      std::vector<Timestamp> ts;
      const size_t n = rng() % 40;
      for (size_t i = 0; i < n; ++i) {
        ts.push_back(static_cast<Timestamp>(rng() % 100));
      }
      std::sort(ts.begin(), ts.end());
      for (Timestamp t : ts) run.push_back({t, 0.0});
      all.insert(all.end(), ts.begin(), ts.end());
    }
    std::vector<Timestamp> merged;
    for (const TvPairDouble& p : Merge(runs, false)) merged.push_back(p.t);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(merged, all) << "k=" << k;
  }
}

// --- randomized: sealed chunks, mid-page range bounds -----------------------

class MergeChunksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("merge_cursor_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Seals `points` (sorted, duplicate-free) as one chunk of sensor "s"
  /// with `page` points per page.
  SealedFileRef Seal(const std::string& name, const Points& points,
                     size_t page) {
    const std::string path = (dir_ / name).string();
    std::vector<Timestamp> ts;
    std::vector<double> vs;
    for (const TvPairDouble& p : points) {
      ts.push_back(p.t);
      vs.push_back(p.v);
    }
    TsFileWriter writer(path);
    EXPECT_TRUE(writer
                    .WriteChunkF64("s", ts, vs, Encoding::kTs2Diff,
                                   Encoding::kGorilla, page)
                    .ok());
    EXPECT_TRUE(writer.Finish().ok());
    return std::make_shared<SealedFileMeta>(
        path, std::make_shared<const FooterIndex>(writer.Locators()), nullptr);
  }

  std::filesystem::path dir_;
};

TEST_F(MergeChunksTest, RandomizedChunksAndRunsAgainstKeepLast) {
  Rng rng(64);
  ChunkCache cache(1u << 20);
  size_t stats_hits = 0;  // the fold must have folded something
  for (size_t k = 1; k <= 64; k += (k < 8 ? 1 : 7)) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::map<Timestamp, double> written;  // keep-last over all sources
    std::vector<SealedFileRef> files;
    std::vector<Points> runs;  // the newest sources: memtable-like runs
    const size_t chunk_sources = k - k / 4;
    for (size_t src = 0; src < k; ++src) {
      Points points;
      Timestamp t = static_cast<Timestamp>(rng.NextBelow(50));
      const size_t len = 1 + rng.NextBelow(60);
      for (size_t i = 0; i < len; ++i) {
        t += 1 + static_cast<Timestamp>(rng.NextBelow(4));
        points.push_back({t, static_cast<double>(src * 1000 + i)});
        written[t] = points.back().v;
      }
      if (src < chunk_sources) {
        // Unique names: the cache keys pages by path.
        files.push_back(Seal("k" + std::to_string(k) + "_f" +
                                 std::to_string(src) + ".bstf",
                             points,
                             3 + rng.NextBelow(5)));
      } else {
        runs.push_back(points);
      }
    }
    for (int probe = 0; probe < 6; ++probe) {
      // Bounds drawn from the written span land inside pages.
      Timestamp a = static_cast<Timestamp>(rng.NextBelow(300));
      Timestamp b = static_cast<Timestamp>(rng.NextBelow(300));
      if (a > b) std::swap(a, b);
      MergeCursor cursor(a, b);
      // The same sources with the statistics fold on.
      MergeCursor folder(a, b);
      folder.EnableStats();
      for (MergeCursor* c : {&cursor, &folder}) {
        for (const SealedFileRef& f : files) {
          std::shared_ptr<const FooterIndex> footer;
          ASSERT_TRUE(f->Footer(&footer).ok());
          ASSERT_TRUE(c->AddChunk(*f, "s", *footer->Find("s"),
                                  probe % 2 == 0 ? &cache : nullptr)
                          .ok());
        }
        for (const Points& run : runs) c->AddRun(Block(run));
      }
      Points got;
      ASSERT_TRUE(cursor
                      .ForEach(true, [&](Timestamp t, double v) {
                        got.push_back({t, v});
                      })
                      .ok());
      auto lo = written.lower_bound(a);
      const auto hi = written.upper_bound(b);
      RangeStats want;
      for (auto it = lo; it != hi; ++it) want.Fold(it->first, it->second);
      RangeStats folded;
      ASSERT_TRUE(folder.Aggregate(true, &folded).ok());
      stats_hits += folder.stats_hits();
      // Integer values: the sum is exact whatever the fold order.
      ASSERT_EQ(folded.count, want.count) << "[" << a << "," << b << "]";
      EXPECT_EQ(folded.sum, want.sum);
      EXPECT_EQ(folded.min, want.min);
      EXPECT_EQ(folded.max, want.max);
      EXPECT_EQ(folded.first_time, want.first_time);
      EXPECT_EQ(folded.first, want.first);
      EXPECT_EQ(folded.last_time, want.last_time);
      EXPECT_EQ(folded.last, want.last);
      ASSERT_EQ(got.size(), static_cast<size_t>(std::distance(lo, hi)))
          << "[" << a << "," << b << "]";
      EXPECT_LE(got.size(), cursor.size_hint());
      for (size_t i = 0; lo != hi; ++lo, ++i) {
        ASSERT_EQ(got[i].t, lo->first);
        ASSERT_DOUBLE_EQ(got[i].v, lo->second) << "t=" << lo->first;
      }
    }
  }
  EXPECT_GT(stats_hits, 0u);
}

// --- statistics fold: table rows ---------------------------------------------

/// One source of a fold row: a sealed chunk of sensor "s" (`page` points
/// per page) or, with page == 0, a memtable-like run.
struct FoldSource {
  Points points;
  size_t page = 4;
  bool footer_stats = true;  // false: a stat-less BSTF1 file
  int nan_page = -1;         // page whose header sum is NaN-poisoned
  bool nan_chunk = false;    // footer min_v NaN-poisoned
};

struct FoldCase {
  const char* name;
  std::vector<FoldSource> sources;  // oldest first
  Timestamp t_min, t_max;
  size_t stats_hits;  // chunks and pages folded from statistics
  size_t pages_read;  // pages fetched, the last-value read included
  bool merged;        // a run held points, or two sources' points met
};

/// Points t = lo..hi with value 10 t.
Points Line(Timestamp lo, Timestamp hi) {
  Points out;
  for (Timestamp t = lo; t <= hi; ++t) out.push_back({t, 10.0 * t});
  return out;
}

Points WithNaN(Points points, Timestamp lo, Timestamp hi) {
  for (TvPairDouble& p : points) {
    if (p.t >= lo && p.t <= hi) p.v = std::nan("");
  }
  return points;
}

// Chunks are 0..11 in pages of 4 ([0,3], [4,7], [8,11]) unless noted.
const std::vector<FoldCase>& FoldCases() {
  static const std::vector<FoldCase> cases = {
      // The newer run's head (7) equals page [4,7]'s max_t: the page is
      // fetched and merged, so the later write wins at 7. [0,3] is
      // decoded as the first contributor; [8,11] folds and, as the last
      // contributor, is read back for its last value.
      {"PageMaxAtOtherHeadIsMerged",
       {{Line(0, 11)}, {{{7, -70.0}}, 0}},
       0, 11, 1, 3, true},
      // The older run's point at 4 is the pending lookahead when page
      // [4,7] of the newer chunk wins at its min_t: the page is fetched,
      // and its point at 4 replaces the lookahead.
      {"LookaheadAtPageMinTIsMerged",
       {{{{4, -40.0}}, 0}, {Line(0, 11)}},
       0, 11, 1, 3, true},
      // A page header has no first value: [0,3] is decoded although it
      // lies inside the range; [8,11] is cut by the range and decoded.
      {"FirstContributorIsDecoded", {{Line(0, 11)}}, 0, 10, 1, 2, false},
      // [4,7] and [8,11] fold; the last value comes from reading [8,11].
      {"LastValueReadAfterStatsPage",
       {{Line(0, 11)}},
       1, 11, 2, 2, false},
      // A covered chunk folds whole from its footer: nothing is read.
      {"CoveredChunkFoldsFromFooter",
       {{Line(0, 11)}},
       0, 11, 1, 0, false},
      {"NaNPoisonedPageStatsDecode",
       {{Line(0, 11), 4, true, /*nan_page=*/1}},
       1, 11, 1, 3, false},
      {"NaNPoisonedChunkStatsDecode",
       {{Line(0, 11), 4, true, -1, /*nan_chunk=*/true}},
       0, 11, 2, 2, false},
      // An all-NaN page folds with the NaN contract (+inf/-inf/0 stats).
      {"AllNaNPageFolds",
       {{WithNaN(Line(0, 11), 4, 7)}},
       1, 11, 2, 2, false},
      {"AllNaNChunkFolds",
       {{WithNaN(Line(0, 11), 0, 11)}},
       0, 11, 1, 0, false},
      // A stat-less (BSTF1) footer: every page is decoded.
      {"Bstf1ChunkDecodesEveryPage",
       {{Line(0, 11), 4, /*footer_stats=*/false}},
       0, 11, 0, 3, false},
      // A sealed chunk of late points in the gap between pages [2,3] and
      // [8,9] (pages of 2) merges against no page: all but the first
      // page fold, and the late chunk folds whole.
      {"HoleFillingRunLeavesPagesFolded",
       {{{{0, 0.0}, {1, 10.0}, {2, 20.0}, {3, 30.0}, {8, 80.0}, {9, 90.0},
          {10, 100.0}, {11, 110.0}},
         2},
        {{{5, -50.0}, {6, -60.0}}, 2}},
       0, 11, 4, 2, false},
  };
  return cases;
}

class StatsFoldTest : public ::testing::Test {
 public:
  explicit StatsFoldTest(const FoldCase* c) : case_(c) {}

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("merge_fold_" + std::to_string(::getpid()) + "_" + case_->name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void TestBody() override {
    ChunkCache cache(1u << 20);
    std::vector<SealedFileRef> files(case_->sources.size());
    std::vector<ChunkLocator> locators(case_->sources.size());
    std::map<Timestamp, double> written;  // keep-last over all sources
    for (size_t i = 0; i < case_->sources.size(); ++i) {
      const FoldSource& src = case_->sources[i];
      for (const TvPairDouble& p : src.points) written[p.t] = p.v;
      if (src.page == 0) continue;
      const std::string path = (dir_ / ("f" + std::to_string(i))).string();
      std::vector<Timestamp> ts;
      std::vector<double> vs;
      for (const TvPairDouble& p : src.points) {
        ts.push_back(p.t);
        vs.push_back(p.v);
      }
      TsFileWriter writer(path);
      writer.set_footer_stats(src.footer_stats);
      ASSERT_TRUE(writer
                      .WriteChunkF64("s", ts, vs, Encoding::kTs2Diff,
                                     Encoding::kGorilla, src.page)
                      .ok());
      ASSERT_TRUE(writer.Finish().ok());
      files[i] = std::make_shared<SealedFileMeta>(
          path, std::make_shared<const FooterIndex>(writer.Locators()),
          nullptr);
      locators[i] = writer.Locators().front().second;
      if (src.nan_chunk) locators[i].min_v = std::nan("");
      if (src.nan_page >= 0) {
        // A cached page index is what the cursor reads: poison its copy.
        std::shared_ptr<const FileHandle> handle;
        ASSERT_TRUE(files[i]->Handle(&handle).ok());
        ChunkPages pages;
        ASSERT_TRUE(
            ChunkPages::Open(handle, "s", locators[i], nullptr, &pages).ok());
        auto index = std::make_shared<ChunkPageIndex>(pages.index());
        index->pages[static_cast<size_t>(src.nan_page)].sum_v = std::nan("");
        cache.PutPageIndex(path, "s", index);
      }
    }
    auto add = [&](MergeCursor* cursor) {
      for (size_t i = 0; i < case_->sources.size(); ++i) {
        if (files[i] == nullptr) {
          cursor->AddRun(Block(case_->sources[i].points));
        } else {
          ASSERT_TRUE(
              cursor->AddChunk(*files[i], "s", locators[i], &cache).ok());
        }
      }
    };

    RangeStats want;  // the keep-last reference, folded point by point
    for (auto it = written.lower_bound(case_->t_min);
         it != written.end() && it->first <= case_->t_max; ++it) {
      want.Fold(it->first, it->second);
    }
    MergeCursor plain(case_->t_min, case_->t_max);
    add(&plain);
    RangeStats folded;
    ASSERT_TRUE(plain
                    .ForEach(true, [&](Timestamp t, double v) {
                      folded.Fold(t, v);
                    })
                    .ok());
    MergeCursor cursor(case_->t_min, case_->t_max);
    cursor.EnableStats();
    add(&cursor);
    RangeStats got;
    ASSERT_TRUE(cursor.Aggregate(true, &got).ok());

    for (const RangeStats* r : {&folded, &got}) {
      ASSERT_EQ(r->count, want.count);
      EXPECT_EQ(r->first_time, want.first_time);
      EXPECT_EQ(r->last_time, want.last_time);
      EXPECT_EQ(std::isnan(r->first), std::isnan(want.first));
      EXPECT_EQ(std::isnan(r->last), std::isnan(want.last));
      if (!std::isnan(want.first)) EXPECT_EQ(r->first, want.first);
      if (!std::isnan(want.last)) EXPECT_EQ(r->last, want.last);
      EXPECT_EQ(r->min, want.min);
      EXPECT_EQ(r->max, want.max);
      EXPECT_EQ(r->sum, want.sum);  // small integers: exact in any order
    }
    EXPECT_EQ(cursor.stats_hits(), case_->stats_hits);
    EXPECT_EQ(cursor.pages_read(), case_->pages_read);
    EXPECT_EQ(cursor.merged(), case_->merged);
  }

 private:
  const FoldCase* case_;
  std::filesystem::path dir_;
};

const bool kFoldCasesRegistered = [] {
  for (const FoldCase& c : FoldCases()) {
    ::testing::RegisterTest("MergeStatsFold", c.name, nullptr, nullptr,
                            __FILE__, __LINE__,
                            [&c]() -> ::testing::Test* {
                              return new StatsFoldTest(&c);
                            });
  }
  return true;
}();

}  // namespace
}  // namespace backsort
