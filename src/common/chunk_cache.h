#ifndef BACKSORT_COMMON_CHUNK_CACHE_H_
#define BACKSORT_COMMON_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/chunk_locator.h"
#include "common/types.h"

namespace backsort {

/// One decoded page of a sealed chunk: its sorted column pair. Immutable
/// once inserted into the cache; readers share it by shared_ptr and
/// filter their query range with binary search.
struct DecodedPage {
  std::vector<Timestamp> ts;
  std::vector<double> values;

  /// Approximate heap footprint charged against the cache capacity.
  size_t ApproxBytes() const {
    return ts.capacity() * sizeof(Timestamp) +
           values.capacity() * sizeof(double) + sizeof(DecodedPage);
  }
};

/// Point-in-time cache counters, shipped through EngineMetricsSnapshot
/// into the Prometheus exposition (docs/METRICS.md).
struct ChunkCacheStats {
  uint64_t hits = 0;           ///< page / page-index lookups served from cache
  uint64_t misses = 0;         ///< page / page-index lookups that went to disk
  uint64_t evictions = 0;      ///< entries evicted to stay under capacity
  uint64_t footer_hits = 0;    ///< footer/index lookups served from cache
  uint64_t footer_misses = 0;  ///< footer/index lookups that read the file
  uint64_t bytes = 0;          ///< resident bytes (all entry kinds)
  uint64_t entries = 0;        ///< resident entries (all entry kinds)
  uint64_t capacity_bytes = 0; ///< configured capacity (0 = disabled)
};

/// Sharded byte-bounded LRU cache for the read path, shared by every
/// engine shard. Three entry kinds, all keyed under their file: parsed
/// footers (per file), chunk page indexes (per file and sensor) and
/// decoded pages (per file, sensor and page number). Entries are
/// immutable values held by shared_ptr, so a hit costs one mutex hop +
/// one refcount and evicted entries stay valid for readers still holding
/// them. Internally sharded
/// by file hash (all of one file's entries land in one cache shard), so
/// InvalidateFile scans a single shard and concurrent queries of different
/// files rarely contend. Capacity 0 disables the cache: every lookup
/// returns nullptr (uncounted) and every insert is dropped, so readers run
/// the same code and simply read from the file each time.
class ChunkCache {
 public:
  explicit ChunkCache(size_t capacity_bytes);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity_bytes() const { return capacity_; }

  /// Page index of `sensor`'s chunk in `file`; counts a hit or a miss.
  /// nullptr on miss (and always when disabled).
  std::shared_ptr<const ChunkPageIndex> GetPageIndex(const std::string& file,
                                                     const std::string& sensor);
  void PutPageIndex(const std::string& file, const std::string& sensor,
                    std::shared_ptr<const ChunkPageIndex> index);

  /// Decoded page `page` of `sensor`'s chunk in `file`; counts a hit or a
  /// miss like GetPageIndex.
  std::shared_ptr<const DecodedPage> GetPage(const std::string& file,
                                             const std::string& sensor,
                                             size_t page);
  /// Inserts (or replaces) an entry, evicting LRU entries until the owning
  /// cache shard fits its capacity slice again. No-op when disabled.
  void PutPage(const std::string& file, const std::string& sensor,
               size_t page, std::shared_ptr<const DecodedPage> decoded);

  /// Footer/index cache: the flattened chunk directory of one file
  /// (FooterIndex), so a page-index miss reads straight from the chunk
  /// instead of re-reading the index block. The same shared instance
  /// is typically also held by the file registry — one copy per file
  /// engine-wide.
  std::shared_ptr<const FooterIndex> GetFooter(const std::string& file);
  void PutFooter(const std::string& file,
                 std::shared_ptr<const FooterIndex> footer);

  /// Drops every entry (footer, page indexes, pages) of `file`. Called when
  /// compaction retires the file, so no query can hit stale data through a
  /// recycled path. Not counted as evictions.
  void InvalidateFile(const std::string& file);

  ChunkCacheStats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::string file;
    std::shared_ptr<const void> value;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
    size_t bytes = 0;
  };

  static constexpr size_t kShardCount = 16;

  Shard& ShardFor(const std::string& file);
  /// Inserts under the shard lock, evicting from the LRU tail while the
  /// shard exceeds its capacity slice (the newest entry is never evicted,
  /// so an oversized entry still serves repeats until displaced).
  void Insert(const std::string& file, std::string key,
              std::shared_ptr<const void> value, size_t bytes);
  std::shared_ptr<const void> Lookup(const std::string& file,
                                     const std::string& key);
  /// Lookup counted as a page/page-index hit or miss.
  std::shared_ptr<const void> CountedLookup(const std::string& file,
                                            const std::string& key);

  const size_t capacity_;
  const size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> footer_hits_{0};
  std::atomic<uint64_t> footer_misses_{0};
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_CHUNK_CACHE_H_
