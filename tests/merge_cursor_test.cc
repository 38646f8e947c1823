// Table-driven tests of the engine's one last-write-wins merge
// (engine/merge_cursor.h). The fixed cases keep the test names they had
// under the binary-heap query merge, so their ids are stable; the
// randomized cases diff the cursor against std::map keep-last references
// over memtable-like runs and over sealed chunks read page by page with
// range bounds that fall mid-page.

#include <algorithm>
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
      for (const SealedFileRef& f : files) {
        std::shared_ptr<const FooterIndex> footer;
        ASSERT_TRUE(f->Footer(&footer).ok());
        ASSERT_TRUE(cursor
                        .AddChunk(*f, "s", *footer->Find("s"),
                                  probe % 2 == 0 ? &cache : nullptr)
                        .ok());
      }
      for (const Points& run : runs) cursor.AddRun(Block(run));
      Points got;
      ASSERT_TRUE(cursor
                      .ForEach(true, [&](Timestamp t, double v) {
                        got.push_back({t, v});
                      })
                      .ok());
      auto lo = written.lower_bound(a);
      const auto hi = written.upper_bound(b);
      ASSERT_EQ(got.size(), static_cast<size_t>(std::distance(lo, hi)))
          << "[" << a << "," << b << "]";
      EXPECT_LE(got.size(), cursor.size_hint());
      for (size_t i = 0; lo != hi; ++lo, ++i) {
        ASSERT_EQ(got[i].t, lo->first);
        ASSERT_DOUBLE_EQ(got[i].v, lo->second) << "t=" << lo->first;
      }
    }
  }
}

}  // namespace
}  // namespace backsort
