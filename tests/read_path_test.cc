// Integration tests for the read path (engine/engine_shard.cc): lock-free
// query snapshots (writers progress while a query reads), footer-based
// file pruning, page-granular reads through the shared chunk cache
// (repeat queries are served from memory, compaction invalidates), clean
// error handling on corrupted sealed files, and bit-identical results
// with the cache and pruning disabled.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/storage_engine.h"

namespace backsort {
namespace {

class ReadPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("read_path_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(dir_.string() + "_b", ec);
  }

  EngineOptions Options() {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.shard_count = 1;
    opt.flush_workers = 1;
    // Large threshold: files are sealed only by explicit FlushAll, so each
    // test controls its file layout exactly.
    opt.memtable_flush_threshold = 1'000'000;
    return opt;
  }

  /// Writes [t_begin, t_end) with v = value_base + t and flushes, sealing
  /// exactly one sequence file for the sensor.
  static void WriteFileRange(StorageEngine* engine, const std::string& sensor,
                             Timestamp t_begin, Timestamp t_end,
                             double value_base) {
    for (Timestamp t = t_begin; t < t_end; ++t) {
      ASSERT_TRUE(
          engine->Write(sensor, t, value_base + static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine->FlushAll().ok());
  }

  std::filesystem::path dir_;
};

// --- File-level time pruning ----------------------------------------------

TEST_F(ReadPathTest, PruningSkipsNonOverlappingFiles) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  // Three sealed files with disjoint time ranges.
  WriteFileRange(&engine, "s", 0, 1000, 0.0);
  WriteFileRange(&engine, "s", 1000, 2000, 0.0);
  WriteFileRange(&engine, "s", 2000, 3000, 0.0);
  ASSERT_EQ(engine.sealed_file_count(), 3u);

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 1200, 1400, &out).ok());
  ASSERT_EQ(out.size(), 201u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(1200 + i));
    EXPECT_DOUBLE_EQ(out[i].v, static_cast<double>(out[i].t));
  }
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.query_files_pruned, 2u);
  EXPECT_EQ(snap.query_files_opened, 1u);
  EXPECT_EQ(snap.queries, 1u);
}

TEST_F(ReadPathTest, PruningSkipsFilesWithoutTheSensor) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "a", 0, 500, 0.0);
  WriteFileRange(&engine, "b", 0, 500, 1000.0);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("a", 0, 10'000, &out).ok());
  EXPECT_EQ(out.size(), 500u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  // The file holding only "b" is pruned without being opened.
  EXPECT_EQ(snap.query_files_pruned, 1u);
  EXPECT_EQ(snap.query_files_opened, 1u);
}

TEST_F(ReadPathTest, RecoveryRebuildsPruningRanges) {
  {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    WriteFileRange(&engine, "s", 0, 1000, 0.0);
    WriteFileRange(&engine, "s", 5000, 6000, 0.0);
  }
  // Reopen: per-sensor [min_t, max_t] must come back from the footers.
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 5100, 5200, &out).ok());
  EXPECT_EQ(out.size(), 101u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.query_files_pruned, 1u);
  EXPECT_EQ(snap.query_files_opened, 1u);
}

// --- Chunk cache ----------------------------------------------------------

TEST_F(ReadPathTest, CacheServesRepeatedQuery) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 8u << 20;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 2000, 0.0);

  std::vector<TvPairDouble> first;
  ASSERT_TRUE(engine.Query("s", 100, 900, &first).ok());
  const ChunkCacheStats after_first = engine.GetChunkCacheStats();
  std::vector<TvPairDouble> second;
  ASSERT_TRUE(engine.Query("s", 100, 900, &second).ok());
  const ChunkCacheStats after_second = engine.GetChunkCacheStats();

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].t, second[i].t);
    EXPECT_DOUBLE_EQ(first[i].v, second[i].v);
  }
  // The repeat was served from cache: hits increased, misses did not.
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.entries, 0u);
}

TEST_F(ReadPathTest, CompactionInvalidatesCache) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 8u << 20;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 100, 0.0);
  // Unsequence rewrite of t=50 shadows the sealed value (LWW).
  ASSERT_TRUE(engine.Write("s", 50, -1.0).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  // Warm the cache on the pre-compaction files.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_DOUBLE_EQ(out[50].v, -1.0);

  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_EQ(engine.sealed_file_count(), 1u);

  // Post-compaction queries must not see stale cached chunks of retired
  // files; results stay identical.
  ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(i));
    EXPECT_DOUBLE_EQ(out[i].v, i == 50 ? -1.0 : static_cast<double>(i));
  }
}

// --- Page-granular reads -------------------------------------------------

TEST_F(ReadPathTest, ReadsArePageGranular) {
  constexpr size_t kPagePoints = 100;
  constexpr Timestamp kPoints = 10'000;  // 100 pages per chunk
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 64u << 20;
  opt.points_per_page = kPagePoints;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (Timestamp t = 0; t < kPoints; ++t) {
    ASSERT_TRUE(engine.Write("q", t, static_cast<double>(t)).ok());
    ASSERT_TRUE(engine.Write("a", t, static_cast<double>(t) * 0.5).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_EQ(engine.sealed_file_count(), 1u);

  // A one-page Query on a cold cache: the page index plus the one page
  // it overlaps, never the whole chunk.
  const ChunkCacheStats before = engine.GetChunkCacheStats();
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("q", 250, 260, &out).ok());
  ASSERT_EQ(out.size(), 11u);
  EXPECT_DOUBLE_EQ(out.front().v, 250.0);
  const ChunkCacheStats after = engine.GetChunkCacheStats();
  const uint64_t pages_overlapped = 1;
  EXPECT_LE(after.misses - before.misses, pages_overlapped + 1);
  const uint64_t chunk_decoded_bytes =
      static_cast<uint64_t>(kPoints) * (sizeof(Timestamp) + sizeof(double));
  EXPECT_LT(after.bytes - before.bytes, chunk_decoded_bytes / 4)
      << "the query cached more than a page of the chunk";

  // A tier-2 AggregateFast over a sub-chunk range on a cold cache: the
  // page index plus at most the pages the range overlaps (here only its
  // two boundary pages are decoded; interior ones fold from the index).
  const Timestamp lo = 2'050, hi = 5'049;  // pages 20..50
  const uint64_t agg_pages = 31;
  TsFileReader::RangeStats stats;
  bool used_fast = false;
  ASSERT_TRUE(engine.AggregateFast("a", lo, hi, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  ASSERT_EQ(stats.count, static_cast<size_t>(hi - lo + 1));
  const ChunkCacheStats after_agg = engine.GetChunkCacheStats();
  EXPECT_LE(after_agg.misses - after.misses, agg_pages + 1);

  // Repeating it touches no file bytes: with the index and the boundary
  // pages cached it still answers after the sealed file is truncated
  // under the open engine.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bstf") {
      std::filesystem::resize_file(entry.path(), 16);
    }
  }
  TsFileReader::RangeStats again;
  ASSERT_TRUE(engine.AggregateFast("a", lo, hi, &again, &used_fast).ok());
  EXPECT_EQ(again.count, stats.count);
  EXPECT_EQ(again.sum, stats.sum);
  EXPECT_EQ(again.first, stats.first);
  EXPECT_EQ(again.last, stats.last);
}

// --- Disabled knobs reproduce the old read path ---------------------------

TEST_F(ReadPathTest, DisabledCacheAndPruningGiveIdenticalResults) {
  EngineOptions fast = Options();
  fast.data_dir = dir_.string();
  EngineOptions plain = Options();
  plain.data_dir = dir_.string() + "_b";
  plain.chunk_cache_bytes = 0;
  plain.enable_file_pruning = false;

  StorageEngine engine_fast(fast);
  StorageEngine engine_plain(plain);
  ASSERT_TRUE(engine_fast.Open().ok());
  ASSERT_TRUE(engine_plain.Open().ok());
  EXPECT_GT(engine_fast.chunk_cache_capacity(), 0u);
  EXPECT_EQ(engine_plain.chunk_cache_capacity(), 0u);

  // Same disordered workload with duplicate-timestamp rewrites on both:
  // several sealed files plus unflushed working points.
  for (StorageEngine* engine : {&engine_fast, &engine_plain}) {
    WriteFileRange(engine, "s", 0, 1000, 0.0);
    WriteFileRange(engine, "s", 2000, 3000, 0.0);
    for (Timestamp t = 500; t < 600; ++t) {
      ASSERT_TRUE(engine->Write("s", t, 7000.0 + t).ok());  // rewrites
    }
    ASSERT_TRUE(engine->FlushAll().ok());
    for (Timestamp t = 2950; t < 3050; ++t) {
      ASSERT_TRUE(engine->Write("s", t, 9000.0 + t).ok());  // in-memory
    }
  }

  const struct {
    Timestamp lo, hi;
  } ranges[] = {{0, 5000}, {400, 700}, {550, 2500}, {2900, 3100}, {1500, 1600}};
  for (const auto& r : ranges) {
    // Twice per engine, so the second fast-engine pass reads from cache.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<TvPairDouble> a, b;
      ASSERT_TRUE(engine_fast.Query("s", r.lo, r.hi, &a).ok());
      ASSERT_TRUE(engine_plain.Query("s", r.lo, r.hi, &b).ok());
      ASSERT_EQ(a.size(), b.size()) << "[" << r.lo << "," << r.hi << "]";
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].t, b[i].t);
        // Bit-identical, not approximately equal.
        ASSERT_EQ(a[i].v, b[i].v) << "t=" << a[i].t;
      }
    }
    TsFileReader::RangeStats sa, sb;
    bool fa = false, fb = false;
    ASSERT_TRUE(engine_fast.AggregateFast("s", r.lo, r.hi, &sa, &fa).ok());
    ASSERT_TRUE(engine_plain.AggregateFast("s", r.lo, r.hi, &sb, &fb).ok());
    EXPECT_EQ(sa.count, sb.count);
    EXPECT_EQ(sa.sum, sb.sum);
    EXPECT_EQ(sa.min, sb.min);
    EXPECT_EQ(sa.max, sb.max);
  }
  const ChunkCacheStats stats = engine_fast.GetChunkCacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(engine_plain.GetChunkCacheStats().hits, 0u);
}

// --- Error handling on corrupted sealed files -----------------------------

TEST_F(ReadPathTest, CorruptedFileFailsCleanlyAndEngineStaysUsable) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 0;  // force every query to re-open the file
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "bad", 0, 500, 0.0);
  WriteFileRange(&engine, "good", 0, 500, 100.0);

  // Truncate the first sealed file (the one holding "bad") mid-chunk.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bstf") files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 2u);
  std::sort(files.begin(), files.end());
  std::filesystem::resize_file(files[0], 16);

  // Query of the corrupted sensor: error status, no partial output.
  std::vector<TvPairDouble> out = {{999, 999.0}};  // sentinel content
  Status st = engine.Query("bad", 0, 1000, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(out.empty()) << "partial result leaked on error";

  // The engine is still fully usable: the other sensor's file is intact
  // and (pruning by per-sensor ranges) never touches the corrupted file.
  ASSERT_TRUE(engine.Query("good", 0, 1000, &out).ok());
  ASSERT_EQ(out.size(), 500u);
  EXPECT_DOUBLE_EQ(out[0].v, 100.0);
  // Writes and flushes keep working; fresh data on a new sensor reads back.
  WriteFileRange(&engine, "fresh", 0, 10, 0.0);
  ASSERT_TRUE(engine.Query("fresh", 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

TEST_F(ReadPathTest, CorruptedFileFailsAggregateCleanly) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 0;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 500, 0.0);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bstf") {
      std::filesystem::resize_file(entry.path(), 16);
    }
  }
  // A range that only partially covers the chunk forces the page-level
  // decode tier, which must read the (truncated) file and fail cleanly.
  TsFileReader::RangeStats stats;
  stats.count = 123;
  bool used_fast = true;
  Status st = engine.AggregateFast("s", 10, 1000, &stats, &used_fast);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(stats.count, 0u) << "partial aggregate leaked on error";

  // A range fully covering the chunk is answered from the footer
  // statistics registered at seal time — by design no chunk byte is read,
  // so the truncation is invisible and the sealed data's aggregate comes
  // back intact.
  st = engine.AggregateFast("s", 0, 1000, &stats, &used_fast);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 500u);
}

// --- Lock-free snapshot: writers progress during a slow query -------------

TEST_F(ReadPathTest, WritesProgressDuringSlowQuery) {
  // The query thread parks inside the read stage (after the snapshot is
  // taken and the shard lock released). If Query still held the shard
  // lock there, the main thread's Write/GetLatest on the SAME shard would
  // deadlock this test rather than finish.
  std::mutex mu;
  std::condition_variable cv;
  bool query_parked = false;
  bool release_query = false;
  bool arm_hook = true;  // only the first Query parks

  EngineOptions opt = Options();
  opt.query_read_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!arm_hook) return;
    arm_hook = false;
    query_parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_query; });
  };
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 1000, 0.0);

  std::vector<TvPairDouble> slow_result;
  Status slow_status;
  std::thread query_thread([&] {
    slow_status = engine.Query("s", 0, 1'000'000, &slow_result);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return query_parked; });
  }

  // The query is mid-read. Same-shard writes and reads must progress.
  for (Timestamp t = 5000; t < 5100; ++t) {
    ASSERT_TRUE(engine.Write("s", t, -1.0).ok());
  }
  TvPairDouble last{};
  ASSERT_TRUE(engine.GetLatest("s", &last).ok());
  EXPECT_EQ(last.t, Timestamp{5099});

  {
    std::lock_guard<std::mutex> lock(mu);
    release_query = true;
  }
  cv.notify_all();
  query_thread.join();

  // The slow query answers from its snapshot: the concurrent writes are
  // not in its result.
  ASSERT_TRUE(slow_status.ok());
  ASSERT_EQ(slow_result.size(), 1000u);
  EXPECT_EQ(slow_result.back().t, Timestamp{999});

  // A fresh query sees everything.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 1'000'000, &out).ok());
  EXPECT_EQ(out.size(), 1100u);
}

}  // namespace
}  // namespace backsort
