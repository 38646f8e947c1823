#include "tsfile/tsfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "encoding/bytes.h"

namespace backsort {

namespace {

constexpr size_t kMagicLen = 5;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status FsyncPath(const std::string& path, int flags, const char* what) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError(std::string("cannot open for ") + what + ": " +
                           path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError(std::string(what) + " failed: " + path);
  }
  return Status::OK();
}

/// Parses one serialized index block into locators. `index_offset` (where
/// the block starts in the file) doubles as the end of the last chunk, so
/// chunk lengths can be derived from consecutive offsets.
Status ParseIndexBlock(const uint8_t* block, size_t size,
                       uint64_t index_offset, uint64_t file_size,
                       bool has_stats, FooterMap* out) {
  out->clear();
  ByteReader idx(block, size);
  uint64_t n = 0;
  RETURN_NOT_OK(idx.GetVarint64(&n));
  // Entries are serialized in write order = ascending offset order; the
  // next entry's offset (or the index block) bounds each chunk.
  std::vector<std::pair<std::string, ChunkLocator>> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string sensor;
    RETURN_NOT_OK(idx.GetLengthPrefixedString(&sensor));
    ChunkLocator locator;
    RETURN_NOT_OK(idx.GetFixed64(&locator.offset));
    RETURN_NOT_OK(idx.GetU8(&locator.raw_type));
    RETURN_NOT_OK(idx.GetVarint64(&locator.points));
    int64_t lo = 0, hi = 0;
    RETURN_NOT_OK(idx.GetVarintSigned64(&lo));
    RETURN_NOT_OK(idx.GetVarintSigned64(&hi));
    locator.min_t = lo;
    locator.max_t = hi;
    if (has_stats) {
      // BSTF2 entries append the chunk's value statistics.
      uint64_t bits[5];
      for (uint64_t& b : bits) RETURN_NOT_OK(idx.GetFixed64(&b));
      locator.min_v = BitsToDouble(bits[0]);
      locator.max_v = BitsToDouble(bits[1]);
      locator.sum_v = BitsToDouble(bits[2]);
      locator.first_v = BitsToDouble(bits[3]);
      locator.last_v = BitsToDouble(bits[4]);
      locator.has_stats = true;
    }
    if (locator.offset >= file_size || locator.offset > index_offset) {
      return Status::Corruption("chunk offset out of bounds");
    }
    if (i > 0 && locator.offset < entries.back().second.offset) {
      return Status::Corruption("chunk offsets not ascending");
    }
    entries.emplace_back(std::move(sensor), locator);
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const uint64_t end =
        i + 1 < entries.size() ? entries[i + 1].second.offset : index_offset;
    entries[i].second.length = end - entries[i].second.offset;
    (*out)[entries[i].first] = entries[i].second;
  }
  return Status::OK();
}

}  // namespace

// --- writer -----------------------------------------------------------------

namespace {

/// Serializes one page — stats header plus the encoded time/value buffers
/// — covering points [begin, end) of the columns. The single definition
/// of page bytes: the whole-chunk path and the streaming chunk path both
/// call it, so their output is bit-identical by construction.
template <typename V>
Status EncodePage(const std::vector<Timestamp>& ts,
                  const std::vector<V>& values, size_t begin, size_t end,
                  Encoding time_enc, Encoding value_enc, ByteBuffer* out,
                  ValueStats* chunk_acc = nullptr) {
  const size_t count = end - begin;
  out->PutVarint64(count);
  out->PutVarintSigned64(ts[begin]);
  out->PutVarintSigned64(ts[end - 1]);
  // Per-page value statistics for aggregation pushdown. NaN values are
  // excluded (an all-NaN page stores min=+inf, max=-inf, sum=0), so the
  // read path can always fold stored stats without poisoning min/max.
  // For non-NaN data the bytes match the historical computation exactly.
  // `chunk_acc`, when given, accumulates the same points in time order
  // into the chunk-level statistics destined for the footer.
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  double sum_v = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double v = static_cast<double>(values[i]);
    if (chunk_acc != nullptr) chunk_acc->Fold(v);
    if (!std::isnan(v)) {
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
      sum_v += v;
    }
  }
  auto put_double = [out](double v) { out->PutFixed64(DoubleBits(v)); };
  put_double(min_v);
  put_double(max_v);
  put_double(sum_v);

  std::vector<Timestamp> page_ts(ts.begin() + static_cast<ptrdiff_t>(begin),
                                 ts.begin() + static_cast<ptrdiff_t>(end));
  ByteBuffer time_buf;
  RETURN_NOT_OK(EncodeI64(time_enc, page_ts, &time_buf));
  out->PutVarint64(time_buf.size());
  out->Append(time_buf);

  std::vector<V> page_vals(values.begin() + static_cast<ptrdiff_t>(begin),
                           values.begin() + static_cast<ptrdiff_t>(end));
  ByteBuffer value_buf;
  if constexpr (std::is_same_v<V, int64_t>) {
    RETURN_NOT_OK(EncodeI64(value_enc, page_vals, &value_buf));
  } else {
    RETURN_NOT_OK(EncodeF64(value_enc, page_vals, &value_buf));
  }
  out->PutVarint64(value_buf.size());
  out->Append(value_buf);
  return Status::OK();
}

/// Encodes one chunk (header + pages) with its index-entry metadata —
/// the single definition of chunk bytes behind WriteChunk* and
/// EncodeChunkF64, so every path appends identical bytes.
template <typename V>
Status EncodeChunk(std::string_view sensor, const std::vector<Timestamp>& ts,
                   const std::vector<V>& values, DataType type,
                   Encoding time_enc, Encoding value_enc,
                   size_t points_per_page, TsFileWriter::EncodedChunk* out) {
  if (ts.size() != values.size()) {
    return Status::InvalidArgument("time/value size mismatch");
  }
  if (!std::is_sorted(ts.begin(), ts.end())) {
    return Status::InvalidArgument(
        "chunk timestamps must be sorted before writing (flush sorts first)");
  }
  if (points_per_page == 0) {
    points_per_page = TsFileWriter::kDefaultPointsPerPage;
  }
  out->type = type;
  out->points = ts.size();
  out->min_t = ts.empty() ? Timestamp{0} : ts.front();
  out->max_t = ts.empty() ? Timestamp{-1} : ts.back();
  out->stats = ValueStats{};
  ByteBuffer* body = &out->body;
  body->Clear();
  body->PutLengthPrefixedString(sensor);
  body->PutU8(static_cast<uint8_t>(type));
  body->PutU8(static_cast<uint8_t>(time_enc));
  body->PutU8(static_cast<uint8_t>(value_enc));
  const size_t page_count = ts.empty()
                                ? 0
                                : (ts.size() + points_per_page - 1) /
                                      points_per_page;
  body->PutVarint64(page_count);

  for (size_t p = 0; p < page_count; ++p) {
    const size_t begin = p * points_per_page;
    const size_t end = std::min(begin + points_per_page, ts.size());
    RETURN_NOT_OK(EncodePage(ts, values, begin, end, time_enc, value_enc,
                             body, &out->stats));
  }
  return Status::OK();
}

}  // namespace

Status TsFileWriter::EncodeChunkF64(std::string_view sensor,
                                    const std::vector<Timestamp>& ts,
                                    const std::vector<double>& values,
                                    Encoding time_enc, Encoding value_enc,
                                    size_t points_per_page,
                                    EncodedChunk* out) {
  return EncodeChunk(sensor, ts, values, DataType::kDouble, time_enc,
                     value_enc, points_per_page, out);
}

Status TsFileWriter::AppendEncodedChunk(std::string_view sensor,
                                        const EncodedChunk& chunk) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (chunk_open_) {
    return Status::InvalidArgument("streaming chunk still open");
  }
  if (FileOffset() == 0) {
    buffer_.PutBytes(magic(), kMagicLen);
  }
  index_.push_back({std::string(sensor), FileOffset(), chunk.type,
                    chunk.points, chunk.min_t, chunk.max_t, chunk.stats});
  buffer_.Append(chunk.body);
  return MaybeSpill();
}

Status TsFileWriter::WriteChunkI64(std::string_view sensor,
                                   const std::vector<Timestamp>& ts,
                                   const std::vector<int64_t>& values,
                                   Encoding time_enc, Encoding value_enc,
                                   size_t points_per_page) {
  EncodedChunk chunk;
  RETURN_NOT_OK(EncodeChunk(sensor, ts, values, DataType::kInt64, time_enc,
                            value_enc, points_per_page, &chunk));
  return AppendEncodedChunk(sensor, chunk);
}

Status TsFileWriter::WriteChunkF64(std::string_view sensor,
                                   const std::vector<Timestamp>& ts,
                                   const std::vector<double>& values,
                                   Encoding time_enc, Encoding value_enc,
                                   size_t points_per_page) {
  EncodedChunk chunk;
  RETURN_NOT_OK(EncodeChunkF64(sensor, ts, values, time_enc, value_enc,
                               points_per_page, &chunk));
  return AppendEncodedChunk(sensor, chunk);
}

Status TsFileWriter::SpillBuffer() {
  if (buffer_.size() == 0) return Status::OK();
  if (!spill_out_.is_open()) {
    spill_out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!spill_out_) {
      return Status::IOError("cannot open for write: " + path_);
    }
  }
  spill_out_.write(reinterpret_cast<const char*>(buffer_.data().data()),
                   static_cast<std::streamsize>(buffer_.size()));
  if (!spill_out_) return Status::IOError("write failed: " + path_);
  spilled_bytes_ += buffer_.size();
  buffer_.Clear();
  return Status::OK();
}

Status TsFileWriter::MaybeSpill() {
  if (spill_threshold_ == 0 || buffer_.size() < spill_threshold_) {
    return Status::OK();
  }
  return SpillBuffer();
}

Status TsFileWriter::BeginChunkF64(std::string_view sensor,
                                   uint64_t page_count, Encoding time_enc,
                                   Encoding value_enc) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (chunk_open_) {
    return Status::InvalidArgument("streaming chunk still open");
  }
  if (FileOffset() == 0) {
    buffer_.PutBytes(magic(), kMagicLen);
  }
  chunk_offset_ = FileOffset();
  buffer_.PutLengthPrefixedString(sensor);
  buffer_.PutU8(static_cast<uint8_t>(DataType::kDouble));
  buffer_.PutU8(static_cast<uint8_t>(time_enc));
  buffer_.PutU8(static_cast<uint8_t>(value_enc));
  buffer_.PutVarint64(page_count);
  chunk_open_ = true;
  chunk_sensor_ = sensor;
  chunk_time_enc_ = time_enc;
  chunk_value_enc_ = value_enc;
  chunk_declared_pages_ = page_count;
  chunk_appended_pages_ = 0;
  chunk_points_ = 0;
  chunk_min_t_ = 0;
  chunk_max_t_ = -1;
  chunk_stats_ = ValueStats{};
  return Status::OK();
}

Status TsFileWriter::AppendPageF64(const std::vector<Timestamp>& ts,
                                   const std::vector<double>& values) {
  if (!chunk_open_) return Status::InvalidArgument("no streaming chunk open");
  if (chunk_appended_pages_ == chunk_declared_pages_) {
    return Status::InvalidArgument("more pages than declared");
  }
  if (ts.empty() || ts.size() != values.size()) {
    return Status::InvalidArgument("bad page columns");
  }
  if (!std::is_sorted(ts.begin(), ts.end())) {
    return Status::InvalidArgument("page timestamps must be sorted");
  }
  if (chunk_points_ > 0 && ts.front() < chunk_max_t_) {
    return Status::InvalidArgument("pages must be appended in time order");
  }
  RETURN_NOT_OK(EncodePage(ts, values, 0, ts.size(), chunk_time_enc_,
                           chunk_value_enc_, &buffer_, &chunk_stats_));
  if (chunk_points_ == 0) chunk_min_t_ = ts.front();
  chunk_max_t_ = ts.back();
  chunk_points_ += ts.size();
  ++chunk_appended_pages_;
  return MaybeSpill();
}

Status TsFileWriter::EndChunk() {
  if (!chunk_open_) return Status::InvalidArgument("no streaming chunk open");
  if (chunk_appended_pages_ != chunk_declared_pages_) {
    return Status::InvalidArgument("fewer pages appended than declared");
  }
  index_.push_back({chunk_sensor_, chunk_offset_, DataType::kDouble,
                    chunk_points_, chunk_points_ == 0 ? Timestamp{0}
                                                      : chunk_min_t_,
                    chunk_points_ == 0 ? Timestamp{-1} : chunk_max_t_,
                    chunk_stats_});
  chunk_open_ = false;
  return Status::OK();
}

Status TsFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (chunk_open_) {
    return Status::InvalidArgument("streaming chunk still open");
  }
  if (FileOffset() == 0) {
    buffer_.PutBytes(magic(), kMagicLen);
  }
  const uint64_t index_offset = FileOffset();
  buffer_.PutVarint64(index_.size());
  for (const IndexEntry& e : index_) {
    buffer_.PutLengthPrefixedString(e.sensor);
    buffer_.PutFixed64(e.offset);
    buffer_.PutU8(static_cast<uint8_t>(e.type));
    buffer_.PutVarint64(e.points);
    buffer_.PutVarintSigned64(e.min_t);
    buffer_.PutVarintSigned64(e.max_t);
    if (footer_stats_) {
      buffer_.PutFixed64(DoubleBits(e.stats.min_v));
      buffer_.PutFixed64(DoubleBits(e.stats.max_v));
      buffer_.PutFixed64(DoubleBits(e.stats.sum_v));
      buffer_.PutFixed64(DoubleBits(e.stats.first_v));
      buffer_.PutFixed64(DoubleBits(e.stats.last_v));
    }
  }
  buffer_.PutFixed64(index_offset);
  buffer_.PutBytes(magic(), kMagicLen);

  // Flat sorted entries instead of a FooterMap: sealing a 100k-sensor
  // table costs two large allocations here, not 100k tree nodes the
  // allocator would retain after the writer dies. Lexicographic order is
  // what the map iteration used to give every consumer.
  locators_.clear();
  locators_.reserve(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) {
    const IndexEntry& e = index_[i];
    ChunkLocator locator;
    locator.offset = e.offset;
    locator.length =
        (i + 1 < index_.size() ? index_[i + 1].offset : index_offset) -
        e.offset;
    locator.points = e.points;
    locator.min_t = e.min_t;
    locator.max_t = e.max_t;
    locator.raw_type = static_cast<uint8_t>(e.type);
    if (footer_stats_) {
      locator.has_stats = true;
      locator.min_v = e.stats.min_v;
      locator.max_v = e.stats.max_v;
      locator.sum_v = e.stats.sum_v;
      locator.first_v = e.stats.first_v;
      locator.last_v = e.stats.last_v;
    }
    locators_.emplace_back(e.sensor, locator);
  }
  std::sort(locators_.begin(), locators_.end(),
            [](const FooterEntries::value_type& a,
               const FooterEntries::value_type& b) {
              return a.first < b.first;
            });

  RETURN_NOT_OK(SpillBuffer());
  spill_out_.flush();
  if (!spill_out_) return Status::IOError("write failed: " + path_);
  spill_out_.close();
  finished_ = true;
  return Status::OK();
}

// --- file handle and footer -------------------------------------------------

Status FileHandle::Open(const std::string& path,
                        std::shared_ptr<const FileHandle>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  out->reset(new FileHandle(path, fd, static_cast<uint64_t>(st.st_size)));
  return Status::OK();
}

FileHandle::~FileHandle() { ::close(fd_); }

Status FileHandle::ReadAt(uint64_t offset, size_t n, void* dst) const {
  auto* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    const ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed: " + path_);
    }
    if (got == 0) return Status::Corruption("file truncated: " + path_);
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

namespace {

/// Tail + index block read; `has_stats` reports the version the tail
/// magic names (BSTF2 index entries carry value statistics, BSTF1 do not).
Status ReadFooter(const FileHandle& file, FooterMap* out, bool* has_stats) {
  const uint64_t file_size = file.size();
  if (file_size < 2 * kMagicLen + 8) {
    return Status::Corruption("file too small for header/footer");
  }
  uint8_t tail[8 + kMagicLen];
  RETURN_NOT_OK(file.ReadAt(file_size - sizeof(tail), sizeof(tail), tail));
  *has_stats = false;
  if (std::memcmp(tail + 8, TsFileWriter::kMagicV2, kMagicLen) == 0) {
    *has_stats = true;
  } else if (std::memcmp(tail + 8, TsFileWriter::kMagic, kMagicLen) != 0) {
    return Status::Corruption("bad tail magic (truncated file?)");
  }
  ByteReader tail_reader(tail, 8);
  uint64_t index_offset = 0;
  RETURN_NOT_OK(tail_reader.GetFixed64(&index_offset));
  // file_size >= sizeof(tail) + kMagicLen was checked above, so the
  // subtraction cannot underflow (and an offset near UINT64_MAX cannot
  // slip past via addition overflow).
  if (index_offset >= file_size - sizeof(tail) || index_offset < kMagicLen) {
    return Status::Corruption("index offset out of bounds");
  }
  std::vector<uint8_t> block(
      static_cast<size_t>(file_size - sizeof(tail) - index_offset));
  RETURN_NOT_OK(file.ReadAt(index_offset, block.size(), block.data()));
  return ParseIndexBlock(block.data(), block.size(), index_offset, file_size,
                         *has_stats, out);
}

}  // namespace

Status ReadTsFileFooter(const FileHandle& file, FooterMap* out) {
  bool has_stats = false;
  return ReadFooter(file, out, &has_stats);
}

// --- page index and page decode ---------------------------------------------

namespace {

/// Bytes one page-index refill reads: a page header plus, for small pages,
/// the buffers and the next headers after it — one pread serves several
/// headers, and no reader ever holds a chunk's bytes.
constexpr size_t kIndexWindowBytes = 4096;
/// Largest page header: count, min_t, max_t varints, three fixed64
/// statistics, the time-buffer size varint.
constexpr size_t kMaxPageHeaderBytes = 3 * 10 + 3 * 8 + 10;
/// Smallest possible page (one-byte varints, no buffer bytes).
constexpr uint64_t kMinPageBytes = 3 + 3 * 8 + 2;

/// Bounded read window over one chunk's bytes (up to `end`) of a file.
class ChunkWindow {
 public:
  ChunkWindow(const FileHandle& file, uint64_t end) : file_(file), end_(end) {}

  /// Points `*r` at the chunk bytes from `pos` (<= end) on: at least
  /// min(want, end - pos) of them, from the window when it holds them,
  /// else by one pread of max(want, kIndexWindowBytes) bytes clipped at
  /// the chunk end.
  Status At(uint64_t pos, size_t want, ByteReader* r) {
    const uint64_t avail = end_ - pos;
    const uint64_t need = std::min<uint64_t>(want, avail);
    if (pos < buf_pos_ || pos - buf_pos_ + need > buf_.size()) {
      buf_.resize(static_cast<size_t>(
          std::min<uint64_t>(std::max(want, kIndexWindowBytes), avail)));
      RETURN_NOT_OK(file_.ReadAt(pos, buf_.size(), buf_.data()));
      buf_pos_ = pos;
    }
    const size_t skip = static_cast<size_t>(pos - buf_pos_);
    *r = ByteReader(buf_.data() + skip, buf_.size() - skip);
    return Status::OK();
  }

 private:
  const FileHandle& file_;
  const uint64_t end_;
  std::vector<uint8_t> buf_;
  uint64_t buf_pos_ = 0;
};

template <typename V>
constexpr DataType kDataTypeOf =
    std::is_same_v<V, double> ? DataType::kDouble : DataType::kInt64;

/// The one parser of a chunk header and its page headers: builds the page
/// index through a bounded pread window, so no reader ever holds the
/// whole chunk. Errors as documented on ChunkPages::Open.
Status ReadChunkPageIndex(const FileHandle& file, const std::string& sensor,
                          const ChunkLocator& locator, ChunkPageIndex* out) {
  out->pages.clear();
  const std::string& path = file.path();
  if (locator.offset > file.size() ||
      locator.length > file.size() - locator.offset) {
    return Status::Corruption("chunk outside file: " + path);
  }
  const uint64_t end = locator.offset + locator.length;
  ChunkWindow window(file, end);
  ByteReader r(nullptr, 0);
  uint64_t pos = locator.offset;

  // Chunk header: sensor name, data type, encodings, page count.
  RETURN_NOT_OK(window.At(pos, 10 + sensor.size() + 3 + 10, &r));
  uint64_t name_len = 0;
  RETURN_NOT_OK(r.GetVarint64(&name_len));
  std::string stored(sensor.size(), '\0');
  if (name_len != sensor.size() ||
      !r.GetBytes(stored.data(), stored.size()).ok() || stored != sensor) {
    return Status::Corruption("chunk header sensor mismatch: " + path);
  }
  uint64_t page_count = 0;
  RETURN_NOT_OK(r.GetU8(&out->raw_type));
  RETURN_NOT_OK(r.GetU8(&out->time_encoding));
  RETURN_NOT_OK(r.GetU8(&out->value_encoding));
  RETURN_NOT_OK(r.GetVarint64(&page_count));
  if (out->raw_type != locator.raw_type) {
    return Status::Corruption("chunk type disagrees with footer: " + path);
  }
  if (page_count > locator.points) {
    return Status::Corruption("page count above chunk points: " + path);
  }
  pos += r.position();
  out->pages.reserve(static_cast<size_t>(
      std::min<uint64_t>(page_count, locator.length / kMinPageBytes)));

  uint64_t points = 0;
  for (uint64_t p = 0; p < page_count; ++p) {
    PageLocator page;
    RETURN_NOT_OK(window.At(pos, kMaxPageHeaderBytes, &r));
    RETURN_NOT_OK(r.GetVarint64(&page.count));
    RETURN_NOT_OK(r.GetVarintSigned64(&page.min_t));
    RETURN_NOT_OK(r.GetVarintSigned64(&page.max_t));
    uint64_t bits[3];
    for (uint64_t& b : bits) RETURN_NOT_OK(r.GetFixed64(&b));
    page.min_v = BitsToDouble(bits[0]);
    page.max_v = BitsToDouble(bits[1]);
    page.sum_v = BitsToDouble(bits[2]);
    RETURN_NOT_OK(r.GetVarint64(&page.time_size));
    if (page.count > locator.points - points) {
      return Status::Corruption("page points above chunk points: " + path);
    }
    points += page.count;
    page.time_offset = pos + r.position();
    if (page.time_size > end - page.time_offset) {
      return Status::Corruption("page time buffer overruns chunk: " + path);
    }
    pos = page.time_offset + page.time_size;
    RETURN_NOT_OK(window.At(pos, 10, &r));
    RETURN_NOT_OK(r.GetVarint64(&page.value_size));
    page.value_offset = pos + r.position();
    if (page.value_size > end - page.value_offset) {
      return Status::Corruption("page value buffer overruns chunk: " + path);
    }
    pos = page.value_offset + page.value_size;
    out->pages.push_back(page);
  }
  return Status::OK();
}

/// The one page decoder: page `page` of `index` into its column pair,
/// with a single read of that page's buffers. InvalidArgument when the
/// chunk is not of type V; Corruption when the buffers do not decode to
/// the page's point count.
template <typename V>
Status DecodePage(const FileHandle& file, const ChunkPageIndex& index,
                  size_t page, std::vector<Timestamp>* ts,
                  std::vector<V>* values) {
  if (index.raw_type != static_cast<uint8_t>(kDataTypeOf<V>)) {
    return Status::InvalidArgument("data type mismatch: " + file.path());
  }
  const PageLocator& pg = index.pages[page];
  // One read covers both buffers and the value-size varint between them.
  std::vector<uint8_t> buf(
      static_cast<size_t>(pg.value_offset + pg.value_size - pg.time_offset));
  RETURN_NOT_OK(file.ReadAt(pg.time_offset, buf.size(), buf.data()));
  ByteReader time_reader(buf.data(), static_cast<size_t>(pg.time_size));
  RETURN_NOT_OK(DecodeI64(static_cast<Encoding>(index.time_encoding),
                          &time_reader, pg.count, ts));
  ByteReader value_reader(buf.data() + (pg.value_offset - pg.time_offset),
                          static_cast<size_t>(pg.value_size));
  const auto value_enc = static_cast<Encoding>(index.value_encoding);
  if constexpr (std::is_same_v<V, double>) {
    RETURN_NOT_OK(DecodeF64(value_enc, &value_reader, pg.count, values));
  } else {
    RETURN_NOT_OK(DecodeI64(value_enc, &value_reader, pg.count, values));
  }
  if (ts->size() != pg.count || values->size() != pg.count) {
    return Status::Corruption("page decode count mismatch: " + file.path());
  }
  return Status::OK();
}

}  // namespace

// --- chunk pages --------------------------------------------------------------

Status ChunkPages::Open(std::shared_ptr<const FileHandle> file,
                        const std::string& sensor, const ChunkLocator& locator,
                        ChunkCache* cache, ChunkPages* out) {
  out->file_ = std::move(file);
  out->sensor_ = sensor;
  out->cache_ = cache;
  const std::string& path = out->file_->path();
  out->index_ = cache != nullptr ? cache->GetPageIndex(path, sensor) : nullptr;
  if (out->index_ == nullptr) {
    auto built = std::make_shared<ChunkPageIndex>();
    RETURN_NOT_OK(ReadChunkPageIndex(*out->file_, sensor, locator, built.get()));
    if (cache != nullptr) cache->PutPageIndex(path, sensor, built);
    out->index_ = std::move(built);
  }
  return Status::OK();
}

Status ChunkPages::Page(size_t p,
                        std::shared_ptr<const DecodedPage>* out) const {
  if (cache_ != nullptr) {
    *out = cache_->GetPage(file_->path(), sensor_, p);
    if (*out != nullptr) return Status::OK();
  }
  auto page = std::make_shared<DecodedPage>();
  RETURN_NOT_OK(DecodePage(*file_, *index_, p, &page->ts, &page->values));
  if (cache_ != nullptr) cache_->PutPage(file_->path(), sensor_, p, page);
  *out = std::move(page);
  return Status::OK();
}

Status ChunkPages::ReadRange(Timestamp t_min, Timestamp t_max,
                             std::vector<Timestamp>* ts,
                             std::vector<double>* values) const {
  ts->clear();
  values->clear();
  std::shared_ptr<const DecodedPage> page;
  for (size_t p = 0; p < size(); ++p) {
    const PageLocator& pg = index_->pages[p];
    if (pg.max_t < t_min || pg.min_t > t_max) continue;
    RETURN_NOT_OK(Page(p, &page));
    // Pages are sorted (the writer enforces it), so the range filter is a
    // binary search over the decoded columns.
    const auto lo = std::lower_bound(page->ts.begin(), page->ts.end(), t_min);
    const auto hi = std::upper_bound(lo, page->ts.end(), t_max);
    ts->insert(ts->end(), lo, hi);
    values->insert(values->end(),
                   page->values.begin() + (lo - page->ts.begin()),
                   page->values.begin() + (hi - page->ts.begin()));
  }
  return Status::OK();
}

Status ChunkPages::Aggregate(Timestamp t_min, Timestamp t_max,
                             RangeStats* stats, size_t* pages_skipped) const {
  *stats = RangeStats{};
  if (pages_skipped != nullptr) *pages_skipped = 0;
  // Pages are time-ordered: the overlapping ones are one span. Its first
  // and last pages are decoded so first/last are exact; partially covered
  // and NaN-poisoned pages are decoded for filtering; interior covered
  // pages fold from their statistics once a point has been folded.
  const std::vector<PageLocator>& pages = index_->pages;
  const auto first = std::partition_point(
      pages.begin(), pages.end(),
      [&](const PageLocator& m) { return m.max_t < t_min; });
  const auto last = std::partition_point(
      first, pages.end(),
      [&](const PageLocator& m) { return m.min_t <= t_max; });
  std::shared_ptr<const DecodedPage> page;
  for (auto m = first; m != last; ++m) {
    if (m != first && m + 1 != last && stats->count > 0 &&
        m->min_t >= t_min && m->max_t <= t_max && m->stats_usable()) {
      stats->FoldPage(*m);
      if (pages_skipped != nullptr) ++(*pages_skipped);
      continue;
    }
    RETURN_NOT_OK(Page(static_cast<size_t>(m - pages.begin()), &page));
    for (size_t i = 0; i < page->ts.size(); ++i) {
      if (page->ts[i] >= t_min && page->ts[i] <= t_max) {
        stats->Fold(page->ts[i], page->values[i]);
      }
    }
  }
  return Status::OK();
}

// --- reader -----------------------------------------------------------------

Status TsFileReader::Open() {
  RETURN_NOT_OK(FileHandle::Open(path_, &file_));
  bool has_stats = false;
  RETURN_NOT_OK(ReadFooter(*file_, &locators_, &has_stats));
  // The head magic must name the version the tail magic does.
  char head[kMagicLen];
  RETURN_NOT_OK(file_->ReadAt(0, kMagicLen, head));
  if (std::memcmp(head, has_stats ? TsFileWriter::kMagicV2 : TsFileWriter::kMagic,
                  kMagicLen) != 0) {
    return Status::Corruption("bad head magic");
  }
  return Status::OK();
}

std::vector<std::string> TsFileReader::Sensors() const {
  std::vector<std::string> out;
  out.reserve(locators_.size());
  for (const auto& [sensor, _] : locators_) out.push_back(sensor);
  return out;
}

Status TsFileReader::GetDataType(const std::string& sensor,
                                 DataType* out) const {
  auto it = locators_.find(sensor);
  if (it == locators_.end()) return Status::NotFound("sensor: " + sensor);
  *out = static_cast<DataType>(it->second.raw_type);
  return Status::OK();
}

Status TsFileReader::Chunk(const std::string& sensor, DataType expect,
                           ChunkPages* out) const {
  auto it = locators_.find(sensor);
  if (it == locators_.end()) return Status::NotFound("sensor: " + sensor);
  if (static_cast<DataType>(it->second.raw_type) != expect) {
    return Status::InvalidArgument("data type mismatch for " + sensor);
  }
  return ChunkPages::Open(file_, sensor, it->second, nullptr, out);
}

Status TsFileReader::ReadChunkI64(const std::string& sensor,
                                  std::vector<Timestamp>* ts,
                                  std::vector<int64_t>* values) const {
  ChunkPages pages;
  RETURN_NOT_OK(Chunk(sensor, DataType::kInt64, &pages));
  ts->clear();
  values->clear();
  std::vector<Timestamp> page_ts;
  std::vector<int64_t> page_vals;
  for (size_t p = 0; p < pages.size(); ++p) {
    RETURN_NOT_OK(
        DecodePage(pages.file(), pages.index(), p, &page_ts, &page_vals));
    ts->insert(ts->end(), page_ts.begin(), page_ts.end());
    values->insert(values->end(), page_vals.begin(), page_vals.end());
  }
  return Status::OK();
}

Status TsFileReader::ReadChunkF64(const std::string& sensor,
                                  std::vector<Timestamp>* ts,
                                  std::vector<double>* values) const {
  return QueryRangeF64(sensor, std::numeric_limits<Timestamp>::min(),
                       std::numeric_limits<Timestamp>::max(), ts, values);
}

Status TsFileReader::QueryRangeF64(const std::string& sensor, Timestamp t_min,
                                   Timestamp t_max,
                                   std::vector<Timestamp>* ts,
                                   std::vector<double>* values) const {
  ChunkPages pages;
  RETURN_NOT_OK(Chunk(sensor, DataType::kDouble, &pages));
  return pages.ReadRange(t_min, t_max, ts, values);
}

Status TsFileReader::AggregateRangeF64(const std::string& sensor,
                                       Timestamp t_min, Timestamp t_max,
                                       RangeStats* stats,
                                       size_t* pages_skipped) const {
  *stats = RangeStats{};
  if (pages_skipped != nullptr) *pages_skipped = 0;
  ChunkPages pages;
  RETURN_NOT_OK(Chunk(sensor, DataType::kDouble, &pages));
  return pages.Aggregate(t_min, t_max, stats, pages_skipped);
}

Status SyncFileToDisk(const std::string& path) {
  return FsyncPath(path, O_RDONLY, "file fsync");
}

Status SyncDirToDisk(const std::string& path) {
  return FsyncPath(path, O_RDONLY | O_DIRECTORY, "directory fsync");
}

}  // namespace backsort
