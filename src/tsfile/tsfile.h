#ifndef BACKSORT_TSFILE_TSFILE_H_
#define BACKSORT_TSFILE_TSFILE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/chunk_cache.h"
#include "common/chunk_locator.h"
#include "common/status.h"
#include "common/types.h"
#include "encoding/encoding.h"

namespace backsort {

/// Value data types storable in a chunk (IoTDB's TSDataType, reduced to the
/// types exercised by the paper's workloads).
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
};

/// Running value statistics over one chunk, folded point by point in time
/// order during encode. NaN values are excluded from min/max/sum but still
/// counted by the caller's point count; first/last keep the raw values.
/// Folding left to right matters: `sum` then equals what a sequential
/// decode of the chunk would compute, so metadata-only aggregation agrees
/// with the decode path on single-chunk ranges.
struct ValueStats {
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  double sum_v = 0.0;
  double first_v = 0.0;
  double last_v = 0.0;
  bool any = false;  // first_v/last_v valid

  void Fold(double v) {
    if (!any) {
      first_v = v;
      any = true;
    }
    last_v = v;
    if (!std::isnan(v)) {
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
      sum_v += v;
    }
  }
};

/// A simplified TsFile: the columnar, chunk-per-sensor file IoTDB flushes
/// memtables into.
///
/// Layout (format v2, magic "BSTF2"):
///   [magic "BSTF2"]
///   [chunk 0][chunk 1]...
///   [index block: per chunk {sensor, offset, data type,
///                            point count, min_time, max_time,
///                            min_v, max_v, sum_v, first_v, last_v}]
///   [index offset : fixed64]
///   [magic "BSTF2"]
///
/// Format v1 ("BSTF1") is identical except the index entries stop after
/// max_time. The reader accepts both: v1 locators come back with
/// `has_stats == false` and aggregation falls back to decoding those
/// chunks, so stat-less seed-era files stay readable. The writer emits v2
/// unless `set_footer_stats(false)` — which reproduces v1 bit for bit.
///
/// The index block carries each chunk's point count, [min_time, max_time]
/// and (v2) value statistics, so the engine prunes whole files against a
/// query range — and answers aggregations over fully covered, unshadowed
/// chunks — from the footer alone, without decoding (or even mapping) any
/// chunk, and rebuilds its pruning metadata on recovery with a tail-only
/// read (ReadTsFileFooter).
///
/// Chunk layout:
///   sensor name (length-prefixed), data type (u8),
///   time encoding (u8), value encoding (u8), page count (varint),
///   pages: {point count varint, min_time svarint, max_time svarint,
///           value stats (min, max, sum as fixed64 double bits),
///           time buffer (varint size + bytes),
///           value buffer (varint size + bytes)}
///
/// Pages carry min/max time so time-range queries prune pages without
/// decoding them, and value statistics so aggregations over fully covered
/// pages skip decoding entirely (IoTDB's page-statistics pushdown). For
/// int64 chunks the stats are stored as doubles (exact up to 2^53).
class TsFileWriter {
 public:
  static constexpr const char kMagic[] = "BSTF1";
  static constexpr const char kMagicV2[] = "BSTF2";
  static constexpr size_t kDefaultPointsPerPage = 1024;

  explicit TsFileWriter(std::string path) : path_(std::move(path)) {}

  /// Appends a chunk for `sensor`. Timestamps must be sorted ascending
  /// (flush sorts first); returns InvalidArgument otherwise.
  Status WriteChunkI64(std::string_view sensor,
                       const std::vector<Timestamp>& ts,
                       const std::vector<int64_t>& values,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kRle,
                       size_t points_per_page = kDefaultPointsPerPage);

  Status WriteChunkF64(std::string_view sensor,
                       const std::vector<Timestamp>& ts,
                       const std::vector<double>& values,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kGorilla,
                       size_t points_per_page = kDefaultPointsPerPage);

  /// One chunk's serialized body plus the metadata its index entry needs —
  /// the split that lets encoding run off the writer. Chunk bodies are
  /// position-independent (the index entry records the offset at append
  /// time), so parallel flush workers encode different sensors
  /// concurrently and the coordinator appends the results in a
  /// deterministic order; the file bytes are identical to the serial
  /// WriteChunkF64 path by construction.
  struct EncodedChunk {
    ByteBuffer body;
    DataType type = DataType::kDouble;
    size_t points = 0;
    Timestamp min_t = 0;
    Timestamp max_t = -1;  // empty-chunk sentinel, as WriteChunkF64 records
    ValueStats stats;      // folded in time order during encode
  };

  /// Encodes one F64 chunk body into `out` without touching any writer.
  /// Static and stateless — safe to call from any thread. Same validation
  /// as WriteChunkF64 (sorted timestamps, matching column sizes).
  static Status EncodeChunkF64(std::string_view sensor,
                               const std::vector<Timestamp>& ts,
                               const std::vector<double>& values,
                               Encoding time_enc, Encoding value_enc,
                               size_t points_per_page, EncodedChunk* out);

  /// Appends a chunk produced by EncodeChunkF64, recording its index
  /// entry. WriteChunkF64 == EncodeChunkF64 + AppendEncodedChunk.
  Status AppendEncodedChunk(std::string_view sensor,
                            const EncodedChunk& chunk);

  /// Streaming chunk construction, for writers that produce pages
  /// incrementally and know the page count up front (the compaction
  /// merge's counting pass): BeginChunkF64 emits the chunk header for
  /// exactly `page_count` pages, each AppendPageF64 encodes and appends
  /// one page, EndChunk validates the count and records the index entry.
  /// Page bytes are identical to WriteChunkF64 splitting the same points
  /// at the same boundaries. Cannot interleave with WriteChunk*.
  Status BeginChunkF64(std::string_view sensor, uint64_t page_count,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kGorilla);

  /// Appends one page to the open streaming chunk. Timestamps must be
  /// sorted and must not precede the previous page's last timestamp.
  Status AppendPageF64(const std::vector<Timestamp>& ts,
                       const std::vector<double>& values);

  Status EndChunk();

  /// Selects the footer format: true (default) writes BSTF2 with per-chunk
  /// value statistics; false writes the stat-less BSTF1 format, bit for
  /// bit what the pre-statistics writer produced (the `--no-footer-stats`
  /// escape hatch and the legacy-format tests). Must be set before the
  /// first chunk is written — the head magic commits the version.
  void set_footer_stats(bool enabled) { footer_stats_ = enabled; }

  /// Bounds the in-memory build buffer: once it exceeds `bytes`, buffered
  /// content is appended to the file on disk and the buffer reset
  /// (Finish still produces the complete file — same bytes either way).
  /// 0 (the default) keeps the whole file in memory until Finish, which
  /// is the flush path's behavior. Compaction sets a small threshold so
  /// job memory stays bounded by open pages, not output size.
  void set_spill_threshold(size_t bytes) { spill_threshold_ = bytes; }

  /// Writes index + footer and flushes the file to disk.
  Status Finish();

  size_t chunk_count() const { return index_.size(); }

  /// Chunk locators of the sealed file (offset, length, point count, time
  /// range per sensor), sorted by sensor name — what ReadTsFileFooter
  /// would parse back, as flat entries rather than a tree. Valid after
  /// Finish(); the engine flattens it into a FooterIndex to warm the
  /// footer cache without re-reading the file it just wrote.
  const FooterEntries& Locators() const { return locators_; }

 private:
  struct IndexEntry {
    std::string sensor;
    uint64_t offset;
    DataType type;
    uint64_t points;
    Timestamp min_t;
    Timestamp max_t;
    ValueStats stats;
  };

  /// Head/tail magic for the configured format version.
  const char* magic() const { return footer_stats_ ? kMagicV2 : kMagic; }

  /// Absolute position the next appended byte lands at in the final file:
  /// bytes already spilled to disk plus the current buffer. With no spill
  /// threshold this is just buffer_.size(), so offsets match the original
  /// in-memory-only path bit for bit.
  uint64_t FileOffset() const { return spilled_bytes_ + buffer_.size(); }

  /// Appends the buffer to the on-disk file (opening it on first call)
  /// and resets the buffer.
  Status SpillBuffer();
  Status MaybeSpill();

  std::string path_;
  ByteBuffer buffer_;
  std::vector<IndexEntry> index_;
  FooterEntries locators_;  // built (sorted) by Finish()
  bool finished_ = false;
  bool footer_stats_ = true;  // false = legacy BSTF1 footer

  size_t spill_threshold_ = 0;  // 0 = never spill before Finish
  uint64_t spilled_bytes_ = 0;
  std::ofstream spill_out_;  // opened lazily by SpillBuffer

  // Streaming chunk state (BeginChunkF64 .. EndChunk).
  bool chunk_open_ = false;
  std::string chunk_sensor_;
  Encoding chunk_time_enc_ = Encoding::kTs2Diff;
  Encoding chunk_value_enc_ = Encoding::kGorilla;
  uint64_t chunk_offset_ = 0;
  uint64_t chunk_declared_pages_ = 0;
  uint64_t chunk_appended_pages_ = 0;
  uint64_t chunk_points_ = 0;
  Timestamp chunk_min_t_ = 0;
  Timestamp chunk_max_t_ = -1;  // empty-chunk sentinel
  ValueStats chunk_stats_;
};

// --- read side ---------------------------------------------------------------
//
// Every sealed-file read goes one way: a FileHandle (one pread descriptor
// per file), the footer (ReadTsFileFooter) for the chunk locator, the
// chunk's page index (parsed by the one page-header parser), and a decode
// of exactly the pages a time range overlaps. ChunkPages ties these to an
// optional ChunkCache; TsFileReader, the engine's MergeCursor (Query,
// AggregateFast, compaction) and recovery all read through it.

/// Read-only handle on one sealed file, read by offset with pread(2): it
/// has no file position, so one handle serves concurrent readers.
class FileHandle {
 public:
  static Status Open(const std::string& path,
                     std::shared_ptr<const FileHandle>* out);
  ~FileHandle();

  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  const std::string& path() const { return path_; }
  /// Size when opened (sealed files never change afterwards).
  uint64_t size() const { return size_; }

  /// Reads exactly `n` bytes at `offset`. Offsets come from the file's own
  /// metadata, so bytes missing past the end are Corruption (a truncated
  /// file); an OS read error is IOError.
  Status ReadAt(uint64_t offset, size_t n, void* dst) const;

 private:
  FileHandle(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  uint64_t size_;
};

/// Tail-only footer read: parses the index block of a sealed TsFile into
/// per-sensor chunk locators without reading any chunk. Checks the tail
/// magic (which names the format version) and the index bounds.
Status ReadTsFileFooter(const FileHandle& file, FooterMap* out);

/// An aggregate over a time range.
///
/// NaN semantics (documented contract, pinned by tests): NaN values are
/// excluded from min/max/sum but included in count and first/last. A
/// range whose matches are all NaN reports min=+inf, max=-inf, sum=0.
struct RangeStats {
  size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  Timestamp first_time = 0;
  double first = 0.0;
  Timestamp last_time = 0;
  double last = 0.0;

  /// Folds one point; points arrive in time order.
  void Fold(Timestamp t, double v) {
    if (count == 0) {
      first = v;
      first_time = t;
      min = std::numeric_limits<double>::infinity();
      max = -std::numeric_limits<double>::infinity();
    }
    if (!std::isnan(v)) {
      min = std::min(min, v);
      max = std::max(max, v);
      sum += v;
    }
    ++count;
    last = v;
    last_time = t;
  }

  /// Folds a whole chunk from its footer statistics (`c.stats_usable()`);
  /// the chunk sorts after every point folded so far. Footer min/max/sum
  /// exclude NaN and first/last are raw, so the contract above holds.
  void FoldChunk(const ChunkLocator& c) {
    if (count == 0) {
      first = c.first_v;
      first_time = c.min_t;
    }
    FoldValues(c.points, c.min_v, c.max_v, c.sum_v, c.max_t);
    last = c.last_v;
  }

  /// Folds a page from its header statistics (`p.stats_usable()`); the
  /// page sorts after every point folded so far. A page header carries no
  /// first or last value: count must already be > 0, and `last` is left
  /// for the caller to read from the page when it stays the last one.
  void FoldPage(const PageLocator& p) {
    FoldValues(p.count, p.min_v, p.max_v, p.sum_v, p.max_t);
  }

 private:
  void FoldValues(uint64_t n, double lo, double hi, double total,
                  Timestamp end) {
    if (count == 0) {
      min = std::numeric_limits<double>::infinity();
      max = -std::numeric_limits<double>::infinity();
    }
    min = std::min(min, lo);
    max = std::max(max, hi);
    sum += total;
    count += n;
    last_time = end;
  }
};

/// One double chunk's pages: the file handle, the chunk's page index and
/// an optional ChunkCache through which the index and decoded pages are
/// looked up and inserted (under the file's path, so InvalidateFile drops
/// them). Without a cache, or with a disabled one, the same code runs and
/// every lookup misses. Cheap to copy; holds the index by shared_ptr.
class ChunkPages {
 public:
  /// Takes the page index from `cache` or builds it from the chunk's
  /// headers and inserts it. `cache` may be null. Corruption when the
  /// chunk lies outside the file, its header names another sensor or type
  /// than the footer, it holds more pages or points than
  /// `locator.points`, a header is truncated, or a time or value buffer
  /// overruns the chunk.
  static Status Open(std::shared_ptr<const FileHandle> file,
                     const std::string& sensor, const ChunkLocator& locator,
                     ChunkCache* cache, ChunkPages* out);

  const FileHandle& file() const { return *file_; }
  const ChunkPageIndex& index() const { return *index_; }
  size_t size() const { return index_->pages.size(); }

  /// Decoded page `p`, from the cache or decoded and inserted.
  Status Page(size_t p, std::shared_ptr<const DecodedPage>* out) const;

  /// The points in [t_min, t_max], decoding only the pages that overlap.
  Status ReadRange(Timestamp t_min, Timestamp t_max,
                   std::vector<Timestamp>* ts,
                   std::vector<double>* values) const;

  /// Aggregates [t_min, t_max] with page-statistics pushdown: interior
  /// pages fully inside the range fold from the index's statistics; the
  /// first and last contributing pages, partially covered pages and pages
  /// with NaN-poisoned statistics are decoded and filtered. `pages_skipped`
  /// (optional) counts pages served from statistics. Resets `*stats`;
  /// count == 0 means nothing matched. The standalone reader's aggregate
  /// (TsFileReader::AggregateRangeF64); the engine folds statistics inside
  /// its merge instead (MergeCursor::Aggregate).
  Status Aggregate(Timestamp t_min, Timestamp t_max, RangeStats* stats,
                   size_t* pages_skipped = nullptr) const;

 private:
  std::shared_ptr<const FileHandle> file_;
  std::string sensor_;
  ChunkCache* cache_ = nullptr;
  std::shared_ptr<const ChunkPageIndex> index_;
};

/// Standalone reader of one sealed file: footer plus page index, no
/// cache. Open reads the head magic and the footer; chunk reads then go
/// page by page. All accessors are bounds-checked and return Corruption
/// on damaged input.
class TsFileReader {
 public:
  using RangeStats = backsort::RangeStats;

  explicit TsFileReader(std::string path) : path_(std::move(path)) {}

  Status Open();

  std::vector<std::string> Sensors() const;
  Status GetDataType(const std::string& sensor, DataType* out) const;

  /// Reads the full chunk for `sensor`.
  Status ReadChunkI64(const std::string& sensor, std::vector<Timestamp>* ts,
                      std::vector<int64_t>* values) const;
  Status ReadChunkF64(const std::string& sensor, std::vector<Timestamp>* ts,
                      std::vector<double>* values) const;

  /// Time-range scan [t_min, t_max] with page pruning via page min/max.
  Status QueryRangeF64(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, std::vector<Timestamp>* ts,
                       std::vector<double>* values) const;

  /// ChunkPages::Aggregate over `sensor`'s chunk (same NaN semantics).
  Status AggregateRangeF64(const std::string& sensor, Timestamp t_min,
                           Timestamp t_max, RangeStats* stats,
                           size_t* pages_skipped = nullptr) const;

  /// The parsed index block: per-sensor chunk offset/length, point count
  /// and time range — the pruning metadata the engine registers at seal
  /// and recovery time.
  const FooterMap& Locators() const { return locators_; }

 private:
  /// Page reader over `sensor`'s chunk; NotFound / InvalidArgument when
  /// the footer has no such sensor or it is not of `expect` type.
  Status Chunk(const std::string& sensor, DataType expect,
               ChunkPages* out) const;

  std::string path_;
  std::shared_ptr<const FileHandle> file_;
  FooterMap locators_;
};

/// ::fsync an existing file's contents to the storage device. TsFileWriter
/// (ofstream-backed) only flushes to the OS cache; paths that delete
/// another durable copy of the data afterwards — compaction unlinking its
/// inputs, flush unlinking its WAL segment under wal_fsync — call this
/// first so a power cut cannot lose both copies.
Status SyncFileToDisk(const std::string& path);

/// ::fsync a directory, making renames/creations inside it durable. Pair
/// with SyncFileToDisk around an atomic tmp-then-rename publish.
Status SyncDirToDisk(const std::string& path);

}  // namespace backsort

#endif  // BACKSORT_TSFILE_TSFILE_H_
