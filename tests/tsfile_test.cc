#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "encoding/bytes.h"
#include "engine/merge_cursor.h"
#include "engine/storage_engine.h"
#include "tsfile/tsfile.h"

namespace backsort {
namespace {

class TsFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tsfile_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(TsFileTest, WriteReadRoundTripF64) {
  const std::string path = Path("a.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    ts.push_back(i * 3);
    values.push_back(std::sin(i * 0.01) * 100);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s1", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.Sensors(), std::vector<std::string>{"s1"});
  std::vector<Timestamp> got_ts;
  std::vector<double> got_values;
  ASSERT_TRUE(reader.ReadChunkF64("s1", &got_ts, &got_values).ok());
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(got_values, values);
}

TEST_F(TsFileTest, WriteReadRoundTripI64MultiChunk) {
  const std::string path = Path("b.bstf");
  std::vector<Timestamp> ts1, ts2;
  std::vector<int64_t> v1, v2;
  for (int i = 0; i < 5000; ++i) {
    ts1.push_back(i);
    v1.push_back(i % 17);
    ts2.push_back(i * 2);
    v2.push_back(-i);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkI64("alpha", ts1, v1).ok());
    ASSERT_TRUE(writer.WriteChunkI64("beta", ts2, v2).ok());
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.chunk_count(), 2u);
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  ASSERT_EQ(reader.Sensors().size(), 2u);
  std::vector<Timestamp> got_ts;
  std::vector<int64_t> got_v;
  ASSERT_TRUE(reader.ReadChunkI64("beta", &got_ts, &got_v).ok());
  EXPECT_EQ(got_ts, ts2);
  EXPECT_EQ(got_v, v2);
  ASSERT_TRUE(reader.ReadChunkI64("alpha", &got_ts, &got_v).ok());
  EXPECT_EQ(got_v, v1);
}

TEST_F(TsFileTest, RejectsUnsortedChunk) {
  TsFileWriter writer(Path("c.bstf"));
  const std::vector<Timestamp> ts = {3, 1, 2};
  const std::vector<double> values = {1, 2, 3};
  EXPECT_TRUE(writer.WriteChunkF64("s", ts, values).IsInvalidArgument());
}

TEST_F(TsFileTest, RejectsSizeMismatch) {
  TsFileWriter writer(Path("d.bstf"));
  EXPECT_TRUE(
      writer.WriteChunkF64("s", {1, 2}, {1.0}).IsInvalidArgument());
}

TEST_F(TsFileTest, QueryRangePrunesAndFilters) {
  const std::string path = Path("e.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    ts.push_back(i);
    values.push_back(i * 0.5);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(
        writer.WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                             Encoding::kGorilla, /*points_per_page=*/1000)
            .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> got_ts;
  std::vector<double> got_values;
  ASSERT_TRUE(
      reader.QueryRangeF64("s", 54321, 55320, &got_ts, &got_values).ok());
  ASSERT_EQ(got_ts.size(), 1000u);
  EXPECT_EQ(got_ts.front(), 54321);
  EXPECT_EQ(got_ts.back(), 55320);
  for (size_t i = 0; i < got_ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(got_values[i], got_ts[i] * 0.5);
  }
  // Empty range beyond the data.
  ASSERT_TRUE(
      reader.QueryRangeF64("s", 200000, 300000, &got_ts, &got_values).ok());
  EXPECT_TRUE(got_ts.empty());
}

TEST_F(TsFileTest, AggregateRangeUsesPageStats) {
  const std::string path = Path("agg.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    ts.push_back(i);
    values.push_back(std::sin(i * 0.001) * 50 + i * 0.01);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer
                    .WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                                   Encoding::kGorilla, /*points_per_page=*/500)
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());

  TsFileReader::RangeStats stats;
  size_t skipped = 0;
  ASSERT_TRUE(
      reader.AggregateRangeF64("s", 1'234, 44'321, &stats, &skipped).ok());
  // Ground truth by brute force.
  size_t count = 0;
  double sum = 0, min_v = 0, max_v = 0;
  bool first = true;
  for (int i = 1'234; i <= 44'321; ++i) {
    const double v = values[static_cast<size_t>(i)];
    if (first) {
      min_v = max_v = v;
      first = false;
    }
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
    sum += v;
    ++count;
  }
  EXPECT_EQ(stats.count, count);
  EXPECT_DOUBLE_EQ(stats.min, min_v);
  EXPECT_DOUBLE_EQ(stats.max, max_v);
  EXPECT_NEAR(stats.sum, sum, 1e-6 * std::abs(sum));
  EXPECT_EQ(stats.first_time, 1'234);
  EXPECT_DOUBLE_EQ(stats.first, values[1'234]);
  EXPECT_EQ(stats.last_time, 44'321);
  EXPECT_DOUBLE_EQ(stats.last, values[44'321]);
  // ~86 pages in range; all but the boundary + first/last ones fold from
  // statistics.
  EXPECT_GT(skipped, 70u);
}

TEST_F(TsFileTest, AggregateRangeEmptyAndSinglePage) {
  const std::string path = Path("agg2.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {10, 20, 30}, {1.0, 2.0, 3.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  TsFileReader::RangeStats stats;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 100, 200, &stats).ok());
  EXPECT_EQ(stats.count, 0u);
  ASSERT_TRUE(reader.AggregateRangeF64("s", 15, 25, &stats).ok());
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.first, 2.0);
  EXPECT_DOUBLE_EQ(stats.last, 2.0);
}

TEST_F(TsFileTest, MissingSensorIsNotFound) {
  const std::string path = Path("f.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1}, {1.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> ts;
  std::vector<double> values;
  EXPECT_TRUE(reader.ReadChunkF64("nope", &ts, &values).IsNotFound());
  DataType type;
  EXPECT_TRUE(reader.GetDataType("nope", &type).IsNotFound());
}

TEST_F(TsFileTest, TypeMismatchRejected) {
  const std::string path = Path("g.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkI64("s", {1}, {int64_t{5}}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> ts;
  std::vector<double> values;
  EXPECT_TRUE(reader.ReadChunkF64("s", &ts, &values).IsInvalidArgument());
}

TEST_F(TsFileTest, EmptyFileHasNoSensors) {
  const std::string path = Path("h.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_TRUE(reader.Sensors().empty());
}

// --- footer statistics (BSTF2) -----------------------------------------------

TEST_F(TsFileTest, FooterCarriesChunkValueStats) {
  const std::string path = Path("stats.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    ts.push_back(i);
    values.push_back(std::cos(i * 0.003) * 10 - i * 0.001);
    sum += values.back();
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  // The head magic identifies the file as v2.
  {
    std::ifstream f(path, std::ios::binary);
    char magic[5];
    f.read(magic, 5);
    EXPECT_EQ(std::string(magic, 5), "BSTF2");
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const auto it = reader.Locators().find("s");
  ASSERT_NE(it, reader.Locators().end());
  const ChunkLocator& loc = it->second;
  EXPECT_TRUE(loc.has_stats);
  EXPECT_TRUE(loc.stats_usable());
  EXPECT_DOUBLE_EQ(loc.min_v, *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(loc.max_v, *std::max_element(values.begin(), values.end()));
  EXPECT_NEAR(loc.sum_v, sum, 1e-9 * std::abs(sum));
  EXPECT_DOUBLE_EQ(loc.first_v, values.front());
  EXPECT_DOUBLE_EQ(loc.last_v, values.back());
}

TEST_F(TsFileTest, StatlessModeWritesLegacyFormat) {
  const std::string path = Path("legacy.bstf");
  {
    TsFileWriter writer(path);
    writer.set_footer_stats(false);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1, 2, 3}, {9.0, 7.0, 8.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    std::ifstream f(path, std::ios::binary);
    char magic[5];
    f.read(magic, 5);
    EXPECT_EQ(std::string(magic, 5), "BSTF1");
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& loc = reader.Locators().at("s");
  EXPECT_FALSE(loc.has_stats);
  EXPECT_FALSE(loc.stats_usable());
  // The decode fallback still answers aggregates over the stat-less file.
  TsFileReader::RangeStats stats;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 0, 10, &stats).ok());
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 7.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
  EXPECT_DOUBLE_EQ(stats.sum, 24.0);
}

TEST_F(TsFileTest, ChunkAggregateFromLocatorMatchesReader) {
  const std::string path = Path("chunkagg.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    ts.push_back(i * 2);  // strided so range endpoints land between samples
    values.push_back(std::sin(i * 0.01) * (i % 97));
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer
                    .WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                                   Encoding::kGorilla, /*points_per_page=*/512)
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& loc = reader.Locators().at("s");
  // The page reader over a bare handle and locator (the engine's tier-2
  // path, no open reader needed) agrees with the reader-based one.
  std::shared_ptr<const FileHandle> file;
  ASSERT_TRUE(FileHandle::Open(path, &file).ok());
  ChunkPages pages;
  ASSERT_TRUE(ChunkPages::Open(file, "s", loc, nullptr, &pages).ok());
  TsFileReader::RangeStats via_loc, via_reader;
  ASSERT_TRUE(pages.Aggregate(1'001, 30'000, &via_loc).ok());
  ASSERT_TRUE(reader.AggregateRangeF64("s", 1'001, 30'000, &via_reader).ok());
  EXPECT_EQ(via_loc.count, via_reader.count);
  EXPECT_DOUBLE_EQ(via_loc.min, via_reader.min);
  EXPECT_DOUBLE_EQ(via_loc.max, via_reader.max);
  EXPECT_NEAR(via_loc.sum, via_reader.sum, 1e-9 * std::abs(via_reader.sum));
  EXPECT_EQ(via_loc.first_time, via_reader.first_time);
  EXPECT_EQ(via_loc.last_time, via_reader.last_time);
}

TEST_F(TsFileTest, NaNValuesExcludedFromFooterStats) {
  const std::string path = Path("nan.bstf");
  const double nan = std::nan("");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(
        writer.WriteChunkF64("mixed", {1, 2, 3, 4}, {nan, 2.0, 6.0, nan}).ok());
    ASSERT_TRUE(writer.WriteChunkF64("allnan", {1, 2}, {nan, nan}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& mixed = reader.Locators().at("mixed");
  EXPECT_TRUE(mixed.stats_usable());
  EXPECT_DOUBLE_EQ(mixed.min_v, 2.0);
  EXPECT_DOUBLE_EQ(mixed.max_v, 6.0);
  EXPECT_DOUBLE_EQ(mixed.sum_v, 8.0);
  EXPECT_TRUE(std::isnan(mixed.first_v)) << "first/last keep raw values";
  EXPECT_TRUE(std::isnan(mixed.last_v));
  // All-NaN chunk: the documented +inf/-inf/0 sentinels, still usable.
  const ChunkLocator& allnan = reader.Locators().at("allnan");
  EXPECT_TRUE(allnan.stats_usable());
  EXPECT_TRUE(std::isinf(allnan.min_v) && allnan.min_v > 0);
  EXPECT_TRUE(std::isinf(allnan.max_v) && allnan.max_v < 0);
  EXPECT_DOUBLE_EQ(allnan.sum_v, 0.0);
  EXPECT_EQ(allnan.points, 2u);
}

// --- failure injection --------------------------------------------------------

TEST_F(TsFileTest, CorruptMagicDetected) {
  const std::string path = Path("i.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1, 2}, {1.0, 2.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXX", 5);
  }
  TsFileReader reader(path);
  EXPECT_TRUE(reader.Open().IsCorruption());
}

TEST_F(TsFileTest, TruncatedFileDetected) {
  const std::string path = Path("j.bstf");
  {
    TsFileWriter writer(path);
    std::vector<Timestamp> ts;
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) {
      ts.push_back(i);
      values.push_back(i);
    }
    ASSERT_TRUE(writer.WriteChunkF64("s", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  TsFileReader reader(path);
  EXPECT_FALSE(reader.Open().ok());
}

TEST_F(TsFileTest, GarbageIndexOffsetDetected) {
  const std::string path = Path("k.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1}, {1.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 13);  // fixed64 before magic
    const uint64_t bogus = ~0ULL;
    f.write(reinterpret_cast<const char*>(&bogus), 8);
  }
  TsFileReader reader(path);
  EXPECT_TRUE(reader.Open().IsCorruption());
}

// --- hostile chunks through every page-reader entry point -------------------

// A crafted two-page chunk whose length fields are written as fixed-width
// (non-minimal, still valid) 5-byte varints, so each defect below rewrites
// one field without moving any other byte: the damaged file has the same
// size and the same footer as the sound one.
enum class ChunkDefect {
  kNone,
  kTimeSizePastChunkEnd,
  kValueSizePastChunkEnd,
  kPageCountAbovePoints,
  kPagePointsAbovePoints,
  kTruncatedPageHeader,
};

constexpr size_t kCraftPages = 2;
constexpr size_t kCraftPagePoints = 10;
constexpr uint64_t kCraftPoints = kCraftPages * kCraftPagePoints;

void PutWideVarint(ByteBuffer* out, uint64_t v) {
  for (int i = 0; i < 4; ++i) {
    out->PutU8(static_cast<uint8_t>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out->PutU8(static_cast<uint8_t>(v));
}

void WriteCraftedFile(const std::string& path, const std::string& sensor,
                      ChunkDefect defect) {
  TsFileWriter::EncodedChunk chunk;
  chunk.points = kCraftPoints;
  chunk.min_t = 0;
  chunk.max_t = static_cast<Timestamp>(kCraftPoints) - 1;
  ByteBuffer& body = chunk.body;
  body.PutLengthPrefixedString(sensor);
  body.PutU8(static_cast<uint8_t>(DataType::kDouble));
  body.PutU8(static_cast<uint8_t>(Encoding::kTs2Diff));
  body.PutU8(static_cast<uint8_t>(Encoding::kGorilla));
  PutWideVarint(&body, defect == ChunkDefect::kPageCountAbovePoints
                           ? kCraftPoints + 1
                           : defect == ChunkDefect::kTruncatedPageHeader
                                 ? kCraftPages + 1
                                 : kCraftPages);
  for (size_t p = 0; p < kCraftPages; ++p) {
    std::vector<Timestamp> ts;
    std::vector<double> vals;
    for (size_t i = 0; i < kCraftPagePoints; ++i) {
      ts.push_back(static_cast<Timestamp>(p * kCraftPagePoints + i));
      vals.push_back(static_cast<double>(ts.back()) * 1.5);
      chunk.stats.Fold(vals.back());
    }
    ByteBuffer time_buf, value_buf;
    ASSERT_TRUE(EncodeI64(Encoding::kTs2Diff, ts, &time_buf).ok());
    ASSERT_TRUE(EncodeF64(Encoding::kGorilla, vals, &value_buf).ok());
    const bool last = p + 1 == kCraftPages;
    PutWideVarint(&body, defect == ChunkDefect::kPagePointsAbovePoints
                             ? kCraftPoints + 1
                             : kCraftPagePoints);
    body.PutVarintSigned64(ts.front());
    body.PutVarintSigned64(ts.back());
    for (double v : {*std::min_element(vals.begin(), vals.end()),
                     *std::max_element(vals.begin(), vals.end()), 0.0}) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      body.PutFixed64(bits);
    }
    PutWideVarint(&body,
                  time_buf.size() +
                      (last && defect == ChunkDefect::kTimeSizePastChunkEnd
                           ? 1000
                           : 0));
    body.Append(time_buf);
    PutWideVarint(&body,
                  value_buf.size() +
                      (last && defect == ChunkDefect::kValueSizePastChunkEnd
                           ? 1000
                           : 0));
    body.Append(value_buf);
  }
  TsFileWriter writer(path);
  ASSERT_TRUE(writer.AppendEncodedChunk(sensor, chunk).ok());
  ASSERT_TRUE(writer.Finish().ok());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(TsFileTest, HostileChunksAreCorruptionThroughEveryEntryPoint) {
  // The sound crafted chunk reads back: the fixtures below are valid
  // files except for the one field each defect rewrites.
  {
    const std::string path = Path("sound.bstf");
    WriteCraftedFile(path, "s", ChunkDefect::kNone);
    TsFileReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    std::vector<Timestamp> ts;
    std::vector<double> values;
    ASSERT_TRUE(reader.ReadChunkF64("s", &ts, &values).ok());
    ASSERT_EQ(ts.size(), kCraftPoints);
    EXPECT_DOUBLE_EQ(values.back(), 19 * 1.5);
  }
  const struct {
    ChunkDefect defect;
    const char* name;
  } cases[] = {
      {ChunkDefect::kTimeSizePastChunkEnd, "time size past chunk end"},
      {ChunkDefect::kValueSizePastChunkEnd, "value size past chunk end"},
      {ChunkDefect::kPageCountAbovePoints, "page count above points"},
      {ChunkDefect::kPagePointsAbovePoints, "page points above points"},
      {ChunkDefect::kTruncatedPageHeader, "truncated page header"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string sound = Path("sound.bstf");
    const std::string bad = Path("bad.bstf");
    WriteCraftedFile(bad, "s", c.defect);
    ASSERT_EQ(Slurp(bad).size(), Slurp(sound).size());

    // TsFileReader: the footer is intact, every chunk read fails.
    TsFileReader reader(bad);
    ASSERT_TRUE(reader.Open().ok());
    std::vector<Timestamp> ts;
    std::vector<double> values;
    EXPECT_TRUE(reader.ReadChunkF64("s", &ts, &values).IsCorruption());
    EXPECT_TRUE(reader.QueryRangeF64("s", 3, 15, &ts, &values).IsCorruption());
    TsFileReader::RangeStats stats;
    EXPECT_TRUE(reader.AggregateRangeF64("s", 3, 15, &stats).IsCorruption());

    // MergeCursor over the chunk, as compaction reads it.
    SealedFileMeta meta(
        bad, std::make_shared<const FooterIndex>(reader.Locators()), nullptr);
    MergeCursor cursor;
    EXPECT_TRUE(cursor.AddChunk(meta, "s", reader.Locators().at("s"), nullptr)
                    .IsCorruption());

    // Engine: recovery adopts the sound file (it decodes every chunk, so
    // a damaged body could not get past Open), then the same bytes turn
    // hostile in place under the open engine.
    const std::filesystem::path data = dir_ / "engine";
    std::filesystem::remove_all(data);
    std::filesystem::create_directories(data);
    const std::string sealed = (data / "seq-00000000.bstf").string();
    std::filesystem::copy_file(sound, sealed);
    EngineOptions opt;
    opt.data_dir = data.string();
    opt.shard_count = 1;
    opt.flush_workers = 1;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    {
      std::fstream f(sealed, std::ios::in | std::ios::out | std::ios::binary);
      const std::string bytes = Slurp(bad);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<TvPairDouble> out;
    EXPECT_TRUE(engine.Query("s", 3, 15, &out).IsCorruption());
    bool used_fast = false;
    EXPECT_TRUE(engine.AggregateFast("s", 3, 15, &stats, &used_fast)
                    .IsCorruption());
    EXPECT_EQ(stats.count, 0u);
  }
}

TEST_F(TsFileTest, MissingFileIsIOError) {
  TsFileReader reader(Path("does_not_exist.bstf"));
  EXPECT_TRUE(reader.Open().IsIOError());
}

}  // namespace
}  // namespace backsort
