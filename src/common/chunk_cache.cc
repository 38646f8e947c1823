#include "common/chunk_cache.h"

#include <algorithm>
#include <functional>

namespace backsort {

namespace {

/// Keys are a one-byte tag + file, then for page indexes ('i') '\0' +
/// sensor, and for pages ('p') also '\0' + the page number's raw bytes;
/// footers ('f') stop after the file. The tag keeps the namespaces
/// disjoint, and no sensor name collides across them because the NUL
/// separator cannot appear inside a file path.
std::string SensorKey(char tag, const std::string& file,
                      const std::string& sensor) {
  std::string key;
  key.reserve(1 + file.size() + 1 + sensor.size() + 1 + sizeof(size_t));
  key += tag;
  key += file;
  key += '\0';
  key += sensor;
  return key;
}

std::string PageKey(const std::string& file, const std::string& sensor,
                    size_t page) {
  std::string key = SensorKey('p', file, sensor);
  key += '\0';
  key.append(reinterpret_cast<const char*>(&page), sizeof(page));
  return key;
}

std::string FooterKey(const std::string& file) { return 'f' + file; }

size_t FooterBytes(const FooterIndex& footer) {
  return sizeof(FooterIndex) + footer.MemoryBytes();
}

}  // namespace

ChunkCache::ChunkCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      shard_capacity_(std::max<size_t>(capacity_bytes / kShardCount, 1)) {
  if (capacity_ == 0) return;
  shards_.reserve(kShardCount);
  for (size_t i = 0; i < kShardCount; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ChunkCache::Shard& ChunkCache::ShardFor(const std::string& file) {
  return *shards_[std::hash<std::string>{}(file) % kShardCount];
}

std::shared_ptr<const void> ChunkCache::Lookup(const std::string& file,
                                               const std::string& key) {
  Shard& shard = ShardFor(file);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ChunkCache::Insert(const std::string& file, std::string key,
                        std::shared_ptr<const void> value, size_t bytes) {
  Shard& shard = ShardFor(file);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  shard.lru.push_front(Entry{std::move(key), file, std::move(value), bytes});
  shard.map[shard.lru.front().key] = shard.lru.begin();
  shard.bytes += bytes;
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const void> ChunkCache::CountedLookup(const std::string& file,
                                                      const std::string& key) {
  if (!enabled()) return nullptr;
  auto value = Lookup(file, key);
  (value == nullptr ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return value;
}

std::shared_ptr<const ChunkPageIndex> ChunkCache::GetPageIndex(
    const std::string& file, const std::string& sensor) {
  return std::static_pointer_cast<const ChunkPageIndex>(
      CountedLookup(file, SensorKey('i', file, sensor)));
}

void ChunkCache::PutPageIndex(const std::string& file,
                              const std::string& sensor,
                              std::shared_ptr<const ChunkPageIndex> index) {
  if (!enabled() || index == nullptr) return;
  const size_t bytes = index->MemoryBytes();
  Insert(file, SensorKey('i', file, sensor), std::move(index), bytes);
}

std::shared_ptr<const DecodedPage> ChunkCache::GetPage(
    const std::string& file, const std::string& sensor, size_t page) {
  return std::static_pointer_cast<const DecodedPage>(
      CountedLookup(file, PageKey(file, sensor, page)));
}

void ChunkCache::PutPage(const std::string& file, const std::string& sensor,
                         size_t page,
                         std::shared_ptr<const DecodedPage> decoded) {
  if (!enabled() || decoded == nullptr) return;
  const size_t bytes = decoded->ApproxBytes();
  Insert(file, PageKey(file, sensor, page), std::move(decoded), bytes);
}

std::shared_ptr<const FooterIndex> ChunkCache::GetFooter(
    const std::string& file) {
  if (!enabled()) return nullptr;
  auto value = Lookup(file, FooterKey(file));
  if (value == nullptr) {
    footer_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  footer_hits_.fetch_add(1, std::memory_order_relaxed);
  return std::static_pointer_cast<const FooterIndex>(value);
}

void ChunkCache::PutFooter(const std::string& file,
                           std::shared_ptr<const FooterIndex> footer) {
  if (!enabled() || footer == nullptr) return;
  const size_t bytes = FooterBytes(*footer);
  Insert(file, FooterKey(file), std::move(footer), bytes);
}

void ChunkCache::InvalidateFile(const std::string& file) {
  if (!enabled()) return;
  Shard& shard = ShardFor(file);
  std::unique_lock<std::mutex> lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->file == file) {
      shard.bytes -= it->bytes;
      shard.map.erase(it->key);
      it = shard.lru.erase(it);
    } else {
      ++it;
    }
  }
}

ChunkCacheStats ChunkCache::GetStats() const {
  ChunkCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.footer_hits = footer_hits_.load(std::memory_order_relaxed);
  stats.footer_misses = footer_misses_.load(std::memory_order_relaxed);
  stats.capacity_bytes = capacity_;
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace backsort
