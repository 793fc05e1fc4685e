// Tests for Save/Load snapshots.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "dycuckoo/dycuckoo.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

TEST(SerializationTest, RoundTripPreservesContents) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(30000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());

  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, o, &restored).ok());
  EXPECT_EQ(restored->size(), keys.size());
  EXPECT_TRUE(restored->Validate().ok());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << i;
    ASSERT_EQ(out[i], i);
  }
}

TEST(SerializationTest, EmptyTableRoundTrip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, o, &restored).ok());
  EXPECT_EQ(restored->size(), 0u);
}

TEST(SerializationTest, LoadUnderDifferentOptions) {
  DyCuckooOptions save_opts;
  save_opts.num_subtables = 4;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(save_opts, &t).ok());
  auto keys = UniqueKeys(10000, 5);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());

  DyCuckooOptions load_opts;
  load_opts.num_subtables = 6;  // different layout: snapshot is logical
  load_opts.seed = 987654321;
  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, load_opts, &restored).ok());
  EXPECT_EQ(restored->size(), keys.size());
  EXPECT_EQ(restored->num_subtables(), 6);
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, nullptr, found.data());
  for (auto f : found) ASSERT_TRUE(f);
}

TEST(SerializationTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a snapshot";
  std::unique_ptr<DyCuckooMap> restored;
  EXPECT_TRUE(
      DyCuckooMap::Load(ss, DyCuckooOptions{}, &restored).IsInvalidArgument());
}

TEST(SerializationTest, RejectsWidthMismatch) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap64> wide;
  ASSERT_TRUE(DyCuckooMap64::Create(o, &wide).ok());
  ASSERT_TRUE(wide->Insert(1, 2).ok());
  std::stringstream ss;
  ASSERT_TRUE(wide->Save(ss).ok());

  std::unique_ptr<DyCuckooMap> narrow;
  EXPECT_TRUE(DyCuckooMap::Load(ss, o, &narrow).IsInvalidArgument());
}

TEST(SerializationTest, RejectsTruncatedStream) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(1000, 6);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();
  std::stringstream cut(data.substr(0, data.size() / 2));
  std::unique_ptr<DyCuckooMap> restored;
  EXPECT_TRUE(DyCuckooMap::Load(cut, o, &restored).IsDataLoss());
}

TEST(SerializationTest, RejectsTruncatedHeader) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  ASSERT_TRUE(t->Insert(1, 2).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Cut inside the fixed-size header (after the magic but before the count):
  // the loader must fail cleanly, not read uninitialized header fields.
  for (size_t cut : {size_t{9}, size_t{17}, size_t{33}}) {
    std::stringstream truncated(data.substr(0, cut));
    std::unique_ptr<DyCuckooMap> restored;
    Status st = DyCuckooMap::Load(truncated, o, &restored);
    EXPECT_TRUE(st.IsDataLoss()) << "cut=" << cut << ": " << st.ToString();
    EXPECT_EQ(restored, nullptr);
  }
}

TEST(SerializationTest, RejectsTruncatedLegacyPayload) {
  // The version-1 format (no version field, no CRC trailer) is no longer
  // read: its magic is refused as "not a DyCuckoo snapshot" before the
  // header or payload is looked at, and no table is handed back.
  constexpr uint64_t kLegacyMagic = 0xD1C0CC00'5A4B1705ULL;
  std::stringstream ss;
  uint64_t header[4] = {kLegacyMagic, sizeof(uint32_t), sizeof(uint32_t),
                        /*claimed pairs=*/1000};
  ss.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (uint32_t i = 0; i < 10; ++i) {  // only 10 pairs actually present
    uint32_t key = i + 1, value = i;
    ss.write(reinterpret_cast<const char*>(&key), sizeof(key));
    ss.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(ss, DyCuckooOptions{}, &restored);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(restored, nullptr);
}

TEST(SerializationTest, DetectsSingleBitFlip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(2000, 9);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Flip one bit in the middle of the payload: the CRC trailer must catch
  // it even though the stream parses structurally.
  data[data.size() / 2] ^= 0x10;
  std::stringstream corrupted(data);
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(corrupted, o, &restored);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("snapshot corrupt"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(restored, nullptr);  // no partially-populated table escapes
}

TEST(SerializationTest, DetectsMissingCrcTrailer) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(500, 10);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();

  // Drop the 4-byte trailer only: every pair is intact but the snapshot is
  // incomplete.
  std::stringstream cut(data.substr(0, data.size() - sizeof(uint32_t)));
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(cut, o, &restored);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("snapshot corrupt"), std::string::npos)
      << st.ToString();
}

TEST(SerializationTest, ExhaustiveBitFlipSweepNeverLoadsCorruptSnapshot) {
  // Flip every single bit of a small v2 snapshot, one at a time.  No flip
  // may crash the loader, return OK, or hand back a partial table: every
  // byte of the format is covered by either the magic check, the header
  // validation (the entry count against the image length included), or
  // the CRC-32 trailer.  So every flip is DataLoss or InvalidArgument.
  //
  // The small private arena is a tripwire: a flipped entry count that
  // reached Reserve would fail here as OutOfMemory, which the sweep
  // refuses.
  gpusim::DeviceArena arena(/*capacity_bytes=*/4u << 20);
  DyCuckooOptions o;
  o.arena = &arena;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(24, 12);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  const std::string data = ss.str();

  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] ^= static_cast<char>(1u << bit);
      std::stringstream corrupted(flipped);
      std::unique_ptr<DyCuckooMap> restored;
      Status st = DyCuckooMap::Load(corrupted, o, &restored);
      ASSERT_TRUE(st.IsDataLoss() || st.IsInvalidArgument())
          << "flip of byte " << byte << " bit " << bit << ": "
          << st.ToString();
      ASSERT_EQ(restored, nullptr)
          << "flip of byte " << byte << " bit " << bit
          << " leaked a partial table (" << st.ToString() << ")";
    }
  }
}

TEST(SerializationTest, InflatedEntryCountIsDataLossBeforeAnyGrowth) {
  // Flip each bit of the header's entry count (its fifth u64) in turn.
  // Load must refuse every one as DataLoss from the image length alone,
  // before a table grows: the arena may peak no higher than a clean Load
  // of the same snapshot.
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(DyCuckooOptions{}, &t).ok());
  auto keys = UniqueKeys(24, 12);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  const std::string data = ss.str();

  gpusim::DeviceArena arena(/*capacity_bytes=*/64u << 20);
  DyCuckooOptions o;
  o.arena = &arena;
  uint64_t clean_peak = 0;
  {
    std::stringstream clean(data);
    std::unique_ptr<DyCuckooMap> restored;
    ASSERT_TRUE(DyCuckooMap::Load(clean, o, &restored).ok());
    clean_peak = arena.peak_bytes();
  }
  ASSERT_GT(clean_peak, 0u);
  constexpr size_t kCountOffset = 4 * sizeof(uint64_t);
  for (int bit = 0; bit < 64; ++bit) {
    std::string flipped = data;
    flipped[kCountOffset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    arena.ResetPeak();
    std::stringstream corrupted(flipped);
    std::unique_ptr<DyCuckooMap> restored;
    Status st = DyCuckooMap::Load(corrupted, o, &restored);
    EXPECT_TRUE(st.IsDataLoss()) << "count bit " << bit << ": "
                                 << st.ToString();
    EXPECT_EQ(restored, nullptr) << "count bit " << bit;
    EXPECT_LE(arena.peak_bytes(), clean_peak) << "count bit " << bit;
  }
}

TEST(SerializationTest, RejectsBytesAfterTheCrcTrailer) {
  // A snapshot image ends at its CRC trailer.  Load reads the whole
  // stream, so a byte after the trailer is corruption, not the start of
  // something else.
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(DyCuckooOptions{}, &t).ok());
  ASSERT_TRUE(t->Insert(1, 2).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::stringstream padded(ss.str() + '\0');
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(padded, DyCuckooOptions{}, &restored);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_NE(st.message().find("after the CRC trailer"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(restored, nullptr);
}

TEST(SerializationTest, RejectsUnknownFormatVersion) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::string data = ss.str();
  // The version field is the second u64; bump it to a future version.
  uint64_t future = 99;
  data.replace(sizeof(uint64_t), sizeof(uint64_t),
               reinterpret_cast<const char*>(&future), sizeof(uint64_t));
  std::stringstream bumped(data);
  std::unique_ptr<DyCuckooMap> restored;
  Status st = DyCuckooMap::Load(bumped, o, &restored);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("format version"), std::string::npos)
      << st.ToString();
}

TEST(SerializationTest, SixtyFourBitRoundTrip) {
  DyCuckooOptions o;
  std::unique_ptr<DyCuckooMap64> t;
  ASSERT_TRUE(DyCuckooMap64::Create(o, &t).ok());
  SplitMix64 rng(8);
  std::vector<uint64_t> keys(5000), values(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next() >> 1;
    values[i] = rng.Next();
  }
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  std::unique_ptr<DyCuckooMap64> restored;
  ASSERT_TRUE(DyCuckooMap64::Load(ss, o, &restored).ok());
  std::vector<uint64_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], values[i]);
  }
}

// 100K pairs: Save stages pairs in chunks of 64K, so this snapshot spans a
// chunk boundary.  A one-worker grid makes the bucket layout, and so the
// pair order, deterministic.
constexpr uint64_t kTwoChunkPairs = 100000;
constexpr size_t kSnapshotHeaderBytes = 5 * sizeof(uint64_t);
constexpr size_t kPairBytes = 2 * sizeof(uint32_t);

std::unique_ptr<DyCuckooMap> TwoChunkTable(gpusim::Grid* grid) {
  DyCuckooOptions o;
  o.grid = grid;
  std::unique_ptr<DyCuckooMap> t;
  EXPECT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(kTwoChunkPairs, 21);
  EXPECT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  return t;
}

TEST(SerializationTest, MultiChunkSnapshotBytesArePinned) {
  gpusim::Grid grid(1);
  auto t = TwoChunkTable(&grid);
  ASSERT_EQ(t->size(), kTwoChunkPairs);
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());
  const std::string data = ss.str();
  ASSERT_EQ(data.size(),
            kSnapshotHeaderBytes + kTwoChunkPairs * kPairBytes + 4);
  // Pinned: the snapshot bytes, pair order included, must not change.
  EXPECT_EQ(Crc32Update(0, data.data(), data.size()), 0x4bedd15eu);

  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, DyCuckooOptions{}, &restored).ok());
  EXPECT_EQ(restored->size(), kTwoChunkPairs);
}

// WriteSnapshot hands a sink the very bytes Save streams, and the image CRC
// it folds from the trailer equals a full pass over those bytes.
TEST(SerializationTest, WriteSnapshotReportsTheImageCrc) {
  gpusim::Grid grid(1);
  auto full = TwoChunkTable(&grid);
  std::unique_ptr<DyCuckooMap> empty;
  ASSERT_TRUE(DyCuckooMap::Create(DyCuckooOptions{}, &empty).ok());
  for (const DyCuckooMap* t : {full.get(), empty.get()}) {
    SCOPED_TRACE("pairs " + std::to_string(t->size()));
    std::string image;
    uint32_t image_crc = 0;
    ASSERT_TRUE(t->WriteSnapshot(
                     [&image](const char* data, size_t len) {
                       image.append(data, len);
                       return true;
                     },
                     &image_crc)
                    .ok());
    std::stringstream saved;
    ASSERT_TRUE(t->Save(saved).ok());
    EXPECT_EQ(image, saved.str());
    EXPECT_EQ(image_crc, Crc32Update(0, image.data(), image.size()));
  }
}

// Load sizes the table once and inserts the image as one batch: on a
// 300K-pair image under 524,288 initial slots (theta 0.57, inside the
// bounds) it neither shrinks nor regrows the table.
TEST(SerializationTest, LoadOfAnInBoundsImageNeverResizes) {
  gpusim::Grid grid(1);
  DyCuckooOptions o;
  o.grid = &grid;
  o.initial_capacity = 524288;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  const auto keys = UniqueKeys(300000, 77);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::stringstream ss;
  ASSERT_TRUE(t->Save(ss).ok());

  std::unique_ptr<DyCuckooMap> restored;
  ASSERT_TRUE(DyCuckooMap::Load(ss, o, &restored).ok());
  const TableStats::Snapshot stats = restored->stats().Capture();
  EXPECT_EQ(stats.upsizes, 0u);
  EXPECT_EQ(stats.downsizes, 0u);
  EXPECT_EQ(stats.rehashed_kvs, 0u);
  EXPECT_EQ(restored->capacity_slots(), 524288u);
  ASSERT_EQ(restored->size(), keys.size());
  std::vector<uint32_t> values(keys.size());
  std::vector<uint8_t> found(keys.size());
  restored->BulkFind(keys, values.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << "key " << keys[i];
    ASSERT_EQ(values[i], i) << "key " << keys[i];
  }
}

// Accepts the first `limit` bytes, then fails every write.  Keeps the bytes
// it accepted and counts the writes offered after the first failure.
class FailAfterBuf : public std::streambuf {
 public:
  explicit FailAfterBuf(size_t limit) : limit_(limit) {}
  const std::string& accepted() const { return accepted_; }
  int writes_after_failure() const { return writes_after_failure_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (failed_) ++writes_after_failure_;
    const size_t take =
        std::min(static_cast<size_t>(n), limit_ - accepted_.size());
    accepted_.append(s, take);
    if (take < static_cast<size_t>(n)) failed_ = true;
    return static_cast<std::streamsize>(take);
  }

 private:
  size_t limit_;
  std::string accepted_;
  bool failed_ = false;
  int writes_after_failure_ = 0;
};

TEST(SerializationTest, SaveStopsAtFirstFailedWrite) {
  gpusim::Grid grid(1);
  auto t = TwoChunkTable(&grid);
  std::stringstream good;
  ASSERT_TRUE(t->Save(good).ok());
  const std::string full = good.str();

  // Fail inside the header, inside the first chunk, inside the second.
  const size_t in_first = kSnapshotHeaderBytes + 1000 * kPairBytes + 3;
  const size_t in_second =
      kSnapshotHeaderBytes + ((1u << 16) + 5000) * kPairBytes + 5;
  for (size_t limit : {size_t{20}, in_first, in_second}) {
    SCOPED_TRACE("fail after " + std::to_string(limit) + " bytes");
    FailAfterBuf buf(limit);
    std::ostream os(&buf);
    Status st = t->Save(os);
    ASSERT_TRUE(st.IsInternal()) << st.ToString();
    // Nothing reaches storage after the failure, the CRC trailer included,
    // and what did reach it is a prefix of the good snapshot.
    EXPECT_EQ(buf.writes_after_failure(), 0);
    EXPECT_EQ(buf.accepted().size(), limit);
    EXPECT_EQ(full.compare(0, limit, buf.accepted()), 0);
    // The reported byte count never claims more than storage took.
    const std::string kPrefix = "snapshot write failed after ";
    const size_t at = st.message().find(kPrefix);
    ASSERT_NE(at, std::string::npos) << st.ToString();
    const uint64_t reported =
        std::strtoull(st.message().c_str() + at + kPrefix.size(), nullptr, 10);
    EXPECT_LE(reported, limit);
  }
}

}  // namespace
}  // namespace dycuckoo
