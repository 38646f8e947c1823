// Unit tests for the sharded LRU ChunkCache (src/common/chunk_cache.h):
// hit/miss accounting, byte-bounded LRU eviction, footer, page-index and
// page entries,
// per-file invalidation, the disabled (capacity 0) mode, and a
// multi-threaded smoke run. Engine-level cache behaviour (compaction
// invalidation, repeated queries served from cache) lives in
// tests/read_path_test.cc.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/chunk_cache.h"

namespace backsort {
namespace {

std::shared_ptr<const DecodedPage> MakePage(size_t points, double base) {
  auto page = std::make_shared<DecodedPage>();
  page->ts.reserve(points);
  page->values.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    page->ts.push_back(static_cast<Timestamp>(i));
    page->values.push_back(base + static_cast<double>(i));
  }
  return page;
}

TEST(ChunkCacheTest, MissThenHit) {
  ChunkCache cache(1 << 20);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.GetPage("f1", "s1", 0), nullptr);
  cache.PutPage("f1", "s1", 0, MakePage(10, 0.0));
  const auto hit = cache.GetPage("f1", "s1", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ts.size(), 10u);
  EXPECT_DOUBLE_EQ(hit->values[3], 3.0);
  // Same file, other sensor: distinct key.
  EXPECT_EQ(cache.GetPage("f1", "s2", 0), nullptr);
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.capacity_bytes, 1u << 20);
}

TEST(ChunkCacheTest, PageIndexAndPagesAreDistinctEntries) {
  ChunkCache cache(1 << 20);
  auto index = std::make_shared<ChunkPageIndex>();
  index->pages.resize(3);
  cache.PutPageIndex("f1", "s1", index);
  cache.PutPage("f1", "s1", 0, MakePage(10, 0.0));
  cache.PutPage("f1", "s1", 1, MakePage(10, 100.0));
  const auto got_index = cache.GetPageIndex("f1", "s1");
  ASSERT_NE(got_index, nullptr);
  EXPECT_EQ(got_index->pages.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.GetPage("f1", "s1", 1)->values[0], 100.0);
  EXPECT_EQ(cache.GetPage("f1", "s1", 2), nullptr);
  EXPECT_EQ(cache.GetPageIndex("f1", "s2"), nullptr);
  // Page-index and page lookups share the hit/miss counters.
  ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 3u);
  cache.InvalidateFile("f1");
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ChunkCacheTest, FooterRoundTrip) {
  ChunkCache cache(1 << 20);
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  FooterMap m;
  ChunkLocator loc;
  loc.offset = 5;
  loc.length = 100;
  loc.points = 10;
  loc.min_t = 0;
  loc.max_t = 9;
  m["s1"] = loc;
  cache.PutFooter("f1", std::make_shared<const FooterIndex>(m));
  const auto hit = cache.GetFooter("f1");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(hit->Find("s1"), nullptr);
  EXPECT_EQ(hit->Find("s1")->length, 100u);
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.footer_hits, 1u);
  EXPECT_EQ(stats.footer_misses, 1u);
  // Footer lookups do not touch the page counters.
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ChunkCacheTest, DisabledCacheIsInert) {
  ChunkCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.PutPage("f1", "s1", 0, MakePage(10, 0.0));
  EXPECT_EQ(cache.GetPage("f1", "s1", 0), nullptr);
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  cache.InvalidateFile("f1");
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.capacity_bytes, 0u);
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  // All keys of one file land in one cache shard, so a tiny capacity
  // forces evictions deterministically regardless of the hash.
  const size_t page_bytes = MakePage(100, 0.0)->ApproxBytes();
  // Shard capacity fits about two pages.
  ChunkCache cache(page_bytes * 2 * 16);
  cache.PutPage("f1", "a", 0, MakePage(100, 1.0));
  cache.PutPage("f1", "b", 0, MakePage(100, 2.0));
  // Touch "a" so "b" is the LRU entry.
  ASSERT_NE(cache.GetPage("f1", "a", 0), nullptr);
  cache.PutPage("f1", "c", 0, MakePage(100, 3.0));
  EXPECT_EQ(cache.GetPage("f1", "b", 0), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.GetPage("f1", "a", 0), nullptr);
  EXPECT_NE(cache.GetPage("f1", "c", 0), nullptr);
  EXPECT_GT(cache.GetStats().evictions, 0u);
}

TEST(ChunkCacheTest, OversizedEntryStillServesRepeats) {
  // An entry larger than the whole cache is admitted (newest entry is
  // never self-evicted) so a scan bigger than the cache still benefits
  // from immediate re-reads.
  ChunkCache cache(1024);
  const auto big = MakePage(10'000, 0.0);
  ASSERT_GT(big->ApproxBytes(), size_t{1024});
  cache.PutPage("f1", "s1", 0, big);
  EXPECT_NE(cache.GetPage("f1", "s1", 0), nullptr);
  // The next insert into the same shard displaces it.
  cache.PutPage("f1", "s2", 0, MakePage(10, 0.0));
  EXPECT_EQ(cache.GetPage("f1", "s1", 0), nullptr);
}

TEST(ChunkCacheTest, EvictedEntryStaysValidForHolders) {
  ChunkCache cache(1024);
  cache.PutPage("f1", "s1", 0, MakePage(100, 7.0));
  const auto held = cache.GetPage("f1", "s1", 0);
  ASSERT_NE(held, nullptr);
  // Force the held entry out.
  cache.PutPage("f1", "s2", 0, MakePage(100, 8.0));
  cache.PutPage("f1", "s3", 0, MakePage(100, 9.0));
  // The shared_ptr keeps the evicted page alive and intact.
  EXPECT_EQ(held->ts.size(), 100u);
  EXPECT_DOUBLE_EQ(held->values[0], 7.0);
}

TEST(ChunkCacheTest, InvalidateFileDropsAllItsEntriesOnly) {
  ChunkCache cache(1 << 20);
  cache.PutPage("f1", "s1", 0, MakePage(10, 0.0));
  cache.PutPage("f1", "s2", 0, MakePage(10, 0.0));
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  cache.PutPage("f2", "s1", 0, MakePage(10, 0.0));
  const uint64_t evictions_before = cache.GetStats().evictions;
  cache.InvalidateFile("f1");
  EXPECT_EQ(cache.GetPage("f1", "s1", 0), nullptr);
  EXPECT_EQ(cache.GetPage("f1", "s2", 0), nullptr);
  EXPECT_EQ(cache.GetFooter("f1"), nullptr);
  EXPECT_NE(cache.GetPage("f2", "s1", 0), nullptr);
  // Invalidations are not counted as evictions.
  EXPECT_EQ(cache.GetStats().evictions, evictions_before);
}

TEST(ChunkCacheTest, ByteAccountingReturnsToZero) {
  ChunkCache cache(1 << 20);
  cache.PutPage("f1", "s1", 0, MakePage(50, 0.0));
  cache.PutPage("f2", "s1", 0, MakePage(50, 0.0));
  cache.PutFooter("f1", std::make_shared<const FooterIndex>());
  EXPECT_GT(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
  cache.InvalidateFile("f1");
  cache.InvalidateFile("f2");
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ChunkCacheTest, ReplacingAKeyKeepsAccountingConsistent) {
  ChunkCache cache(1 << 20);
  cache.PutPage("f1", "s1", 0, MakePage(10, 0.0));
  const uint64_t bytes_small = cache.GetStats().bytes;
  cache.PutPage("f1", "s1", 0, MakePage(1000, 0.0));
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_GT(cache.GetStats().bytes, bytes_small);
  const auto hit = cache.GetPage("f1", "s1", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ts.size(), 1000u);
}

TEST(ChunkCacheTest, ConcurrentMixedTrafficSmoke) {
  // Hammer a small cache from several threads mixing puts, gets and
  // invalidations; run under TSan via tools/ci.sh. Correctness here is
  // "no crash/race and hits return intact pages".
  ChunkCache cache(64 << 10);
  constexpr int kThreads = 8;
  constexpr int kOps = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string file = "f" + std::to_string(i % 7);
        const std::string sensor = "s" + std::to_string(t % 3);
        switch (i % 4) {
          case 0:
            cache.PutPage(file, sensor, 0,
                           MakePage(32, static_cast<double>(t) * 100));
            break;
          case 3:
            if (i % 97 == 0) cache.InvalidateFile(file);
            break;
          default: {
            const auto hit = cache.GetPage(file, sensor, 0);
            if (hit != nullptr) {
              ASSERT_EQ(hit->ts.size(), 32u);
              ASSERT_EQ(hit->ts.size(), hit->values.size());
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const ChunkCacheStats stats = cache.GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, uint64_t{7 * 3 + 7});
}

}  // namespace
}  // namespace backsort
