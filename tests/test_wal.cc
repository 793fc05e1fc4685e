// Unit tests for the durability subsystem: WAL framing, group commit,
// head truncation, the checkpoint store, and point-in-time recovery.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "durability/checkpoint.h"
#include "durability/log_format.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "dycuckoo/dynamic_table.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace durability {
namespace {

using Table = DynamicTable<uint32_t, uint32_t>;
using Wal = WalWriter<uint32_t, uint32_t>;
using Manager = DurabilityManager<uint32_t, uint32_t>;

// One insert record on the wire: frame header + (lsn, type) + key + value.
constexpr size_t kInsertFrameBytes =
    kWalFrameHeaderBytes + kWalRecordPrefixBytes + 2 * sizeof(uint32_t);

Status RecoverFromImages(const std::string& ckpt, const std::string& wal,
                         const DyCuckooOptions& options,
                         std::unique_ptr<Table>* out, RecoveryReport* report) {
  std::istringstream ckpt_stream(ckpt);
  std::istringstream wal_stream(wal);
  return Recover<uint32_t, uint32_t>(ckpt_stream, wal_stream, options, out,
                                     report);
}

TEST(LogFormatTest, FrameRoundTrip) {
  std::string log;
  uint32_t payload = 0xDEADBEEF;
  AppendFrame(&log, /*lsn=*/7, WalRecordType::kErase, &payload,
              sizeof(payload));
  ParsedRecord rec;
  ASSERT_EQ(ParseFrame(log.data(), log.size(), &rec), ParseResult::kOk);
  EXPECT_EQ(rec.lsn, 7u);
  EXPECT_EQ(rec.type, WalRecordType::kErase);
  ASSERT_EQ(rec.payload_len, sizeof(payload));
  uint32_t out = 0;
  std::memcpy(&out, rec.payload, sizeof(out));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(rec.frame_len, log.size());
}

TEST(LogFormatTest, FrameDetectsCorruptionAndTruncation) {
  std::string log;
  uint64_t payload = 42;
  AppendFrame(&log, 1, WalRecordType::kResizeBarrier, &payload,
              sizeof(payload));
  ParsedRecord rec;
  for (size_t i = 0; i < log.size(); ++i) {
    std::string bad = log;
    bad[i] ^= 0x04;
    EXPECT_NE(ParseFrame(bad.data(), bad.size(), &rec), ParseResult::kOk)
        << "flip at byte " << i;
  }
  for (size_t cut = 0; cut < log.size(); ++cut) {
    EXPECT_EQ(ParseFrame(log.data(), cut, &rec), ParseResult::kTruncated)
        << "cut at " << cut;
  }
}

TEST(LogFormatTest, FileHeaderRoundTripAndCorruption) {
  std::string log;
  AppendWalFileHeader(&log, 4, 8, /*first_lsn=*/123);
  ASSERT_EQ(log.size(), kWalFileHeaderBytes);
  WalFileHeader header;
  ASSERT_EQ(ParseWalFileHeader(log.data(), log.size(), &header),
            ParseResult::kOk);
  EXPECT_EQ(header.version, kWalFormatVersion);
  EXPECT_EQ(header.key_width, 4u);
  EXPECT_EQ(header.value_width, 8u);
  EXPECT_EQ(header.first_lsn, 123u);
  std::string bad = log;
  bad[20] ^= 0x01;  // inside the CRC-covered fields
  EXPECT_EQ(ParseWalFileHeader(bad.data(), bad.size(), &header),
            ParseResult::kCorrupt);
  EXPECT_EQ(ParseWalFileHeader(log.data(), 10, &header),
            ParseResult::kTruncated);
}

TEST(WalWriterTest, GroupCommitIsOneFlushForManyRecords) {
  Wal wal;
  for (uint32_t i = 0; i < 8; ++i) wal.AppendInsert(i + 1, i);
  EXPECT_EQ(wal.pending_records(), 8u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.pending_records(), 0u);
  EXPECT_EQ(wal.durable_lsn(), 8u);
  EXPECT_EQ(wal.flushes(), 1u);
  EXPECT_EQ(wal.durable_bytes(),
            kWalFileHeaderBytes + 8 * kInsertFrameBytes);
}

TEST(WalWriterTest, CleanFlushFailureRetainsRecordsForRetry) {
  gpusim::FaultInjectorConfig cfg;
  cfg.io_fail_nth_flush = 0;
  gpusim::ScopedFaultInjection scoped(cfg);
  Wal wal;
  wal.AppendInsert(1, 2);
  Status st = wal.Flush();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_FALSE(wal.dead());
  EXPECT_EQ(wal.pending_records(), 1u);
  EXPECT_EQ(wal.flush_failures(), 1u);
  // The retry (flush #1, not targeted) succeeds and loses nothing.
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.durable_lsn(), 1u);
}

// One fixed, seeded sequence of about 300 mixed records, group-committed in
// batches of 1..40, with the writer's crash paths pinned byte for byte.
// Each injected I/O fault lands on the third group commit (flush #2).  The
// pinned size and CRC of durable_image() fix exactly which bytes a short,
// torn, bit-flipped, retried or killed commit leaves behind.
struct CrashImage {
  size_t size = 0;
  uint32_t crc = 0;
  bool dead = false;
  uint64_t durable_lsn = 0;
  uint64_t flush_failures = 0;
};

CrashImage RunMixedSequence(const gpusim::FaultInjectorConfig& cfg) {
  gpusim::ScopedFaultInjection scoped(cfg);
  Wal wal;
  SplitMix64 rng(0xC0FFEE);
  constexpr int kRecords = 300;
  int appended = 0;
  while (appended < kRecords && !wal.dead()) {
    const int batch = 1 + static_cast<int>(rng.Next() % 40);
    for (int i = 0; i < batch && appended < kRecords; ++i, ++appended) {
      const uint32_t key = 1 + static_cast<uint32_t>(rng.Next() % 500);
      switch (rng.Next() % 10) {
        case 8:
          wal.AppendResizeBarrier(uint64_t{1024} << (rng.Next() % 8));
          break;
        case 9:
          wal.AppendCheckpointMark(wal.durable_lsn());
          break;
        case 6:
        case 7:
          wal.AppendErase(key);
          break;
        default:
          wal.AppendInsert(key, static_cast<uint32_t>(rng.Next()));
          break;
      }
    }
    Status st = wal.Flush();
    if (st.IsInternal()) st = wal.Flush();  // the retried group commit
    EXPECT_TRUE(st.ok() || wal.dead()) << st.ToString();
  }
  const std::string& image = wal.durable_image();
  return {image.size(), Crc32Update(0, image.data(), image.size()),
          wal.dead(), wal.durable_lsn(), wal.flush_failures()};
}

TEST(WalWriterTest, CrashPathsPersistPinnedImages) {
  using Cfg = gpusim::FaultInjectorConfig;
  auto at_third_commit = [](int64_t Cfg::*fault) {
    Cfg cfg;
    cfg.seed = 11;
    cfg.*fault = 2;
    return cfg;
  };
  // The fourth commit: its batch has an odd record count, so keeping
  // "the first half, rounded up" is distinguishable from rounding down.
  Cfg kill_mid;
  kill_mid.kill_at_point = 3;
  kill_mid.kill_point_filter = "wal.commit.mid";
  const struct {
    const char* name;
    Cfg cfg;
    CrashImage want;
  } cases[] = {
      {"none", {}, {7268, 0x5ce2c0dfu, false, 300, 0}},
      {"short", at_third_commit(&Cfg::io_short_write_at_flush),
       {1225, 0x22591633u, true, 49, 0}},
      {"torn", at_third_commit(&Cfg::io_torn_write_at_flush),
       {1245, 0x7323aa5du, true, 49, 0}},
      {"bit_flip", at_third_commit(&Cfg::io_bit_flip_at_flush),
       {1442, 0x29da9387u, true, 58, 0}},
      {"fail_then_retry", at_third_commit(&Cfg::io_fail_nth_flush),
       {7268, 0x5ce2c0dfu, false, 300, 1}},
      {"kill_commit_mid", kill_mid, {1772, 0x05df4f87u, true, 72, 0}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const CrashImage got = RunMixedSequence(c.cfg);
    EXPECT_EQ(got.size, c.want.size);
    EXPECT_EQ(got.crc, c.want.crc);
    EXPECT_EQ(got.dead, c.want.dead);
    EXPECT_EQ(got.durable_lsn, c.want.durable_lsn);
    EXPECT_EQ(got.flush_failures, c.want.flush_failures);
  }
}

TEST(WalWriterTest, TruncateHeadDropsCoveredRecordsAndAdvancesFirstLsn) {
  Wal wal;
  for (uint32_t i = 0; i < 4; ++i) wal.AppendInsert(i + 1, i);
  ASSERT_TRUE(wal.Flush().ok());
  const WalCut cut = wal.durable_cut();  // where a checkpoint at lsn 4 cuts
  EXPECT_EQ(cut.lsn, 4u);
  for (uint32_t i = 4; i < 10; ++i) wal.AppendInsert(i + 1, i);
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.ImageOffset(cut), Wal::ScanCut(wal.durable_image(), 4));
  ASSERT_TRUE(wal.TruncateHead(cut).ok());
  const std::string& image = wal.durable_image();
  WalFileHeader header;
  ASSERT_EQ(ParseWalFileHeader(image.data(), image.size(), &header),
            ParseResult::kOk);
  EXPECT_EQ(header.first_lsn, 5u);
  size_t offset = kWalFileHeaderBytes;
  uint64_t expect = 5;
  while (offset < image.size()) {
    ParsedRecord rec;
    ASSERT_EQ(ParseFrame(image.data() + offset, image.size() - offset, &rec),
              ParseResult::kOk);
    EXPECT_EQ(rec.lsn, expect++);
    offset += rec.frame_len;
  }
  EXPECT_EQ(expect, 11u);
}

// Acceptance: Recover() on a log whose tail is torn mid-record succeeds
// and reports the discarded byte count.
TEST(RecoveryTest, TornTailSucceedsAndReportsDiscardedBytes) {
  Wal wal;
  for (uint32_t i = 0; i < 10; ++i) wal.AppendInsert(i + 1, 100 + i);
  ASSERT_TRUE(wal.Flush().ok());
  std::string image = wal.durable_image();
  // Tear the last record 5 bytes short of complete.
  image.resize(image.size() - 5);
  const uint64_t expected_discard = kInsertFrameBytes - 5;

  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  RecoveryReport report;
  Status st = RecoverFromImages("", image, options, &table, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.torn_tail_bytes, expected_discard);
  EXPECT_EQ(report.last_lsn, 9u);
  EXPECT_EQ(report.wal_records_applied, 9u);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 9u);
  uint32_t value = 0;
  EXPECT_TRUE(table->Find(9, &value));
  EXPECT_EQ(value, 108u);
  EXPECT_FALSE(table->Find(10));  // the torn record was never acknowledged
}

TEST(RecoveryTest, MidLogCorruptionIsDataLossNotSilentSkip) {
  Wal wal;
  for (uint32_t i = 0; i < 10; ++i) wal.AppendInsert(i + 1, i);
  ASSERT_TRUE(wal.Flush().ok());
  std::string image = wal.durable_image();
  // Corrupt the SECOND record: intact records follow, so acknowledged
  // bytes are provably gone and recovery must refuse to paper over it.
  image[kWalFileHeaderBytes + kInsertFrameBytes + 10] ^= 0x40;

  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  RecoveryReport report;
  Status st = RecoverFromImages("", image, options, &table, &report);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_EQ(table, nullptr);
}

TEST(RecoveryTest, WalTruncatedPastCheckpointIsDataLoss) {
  // A WAL that starts at LSN 10 with no checkpoint backing LSNs 1..9.
  Wal wal(/*start_lsn=*/10);
  wal.AppendInsert(1, 1);
  ASSERT_TRUE(wal.Flush().ok());
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  RecoveryReport report;
  Status st =
      RecoverFromImages("", wal.durable_image(), options, &table, &report);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
}

TEST(RecoveryTest, EmptyImagesRecoverToEmptyTable) {
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  RecoveryReport report;
  ASSERT_TRUE(RecoverFromImages("", "", options, &table, &report).ok());
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 0u);
  EXPECT_EQ(report.checkpoint_lsn, 0u);
  EXPECT_EQ(report.wal_records_scanned, 0u);
}

// Drives the full manager protocol: checkpoint + mark + truncation, then
// recovery from checkpoint + WAL suffix.
TEST(ManagerTest, CheckpointThenSuffixReplayRecoversEverything) {
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(options, &table).ok());

  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;  // manual checkpoints only
  Manager manager(dopts);

  auto apply = [&](uint32_t key, uint32_t value) {
    ASSERT_TRUE(table->Insert(key, value).ok());
    manager.LogInsert(key, value);
  };
  for (uint32_t i = 1; i <= 50; ++i) apply(i, i * 10);
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(table.get()).ok());
  EXPECT_EQ(manager.stats().checkpoints, 1u);
  EXPECT_EQ(manager.last_checkpoint_lsn(), 50u);

  for (uint32_t i = 51; i <= 80; ++i) apply(i, i * 10);
  ASSERT_TRUE(table->Erase(7));
  manager.LogErase(7);
  ASSERT_TRUE(manager.Commit().ok());

  std::unique_ptr<Table> recovered;
  RecoveryReport report;
  Status st = RecoverFromImages(manager.checkpoints().durable_image(),
                                manager.wal().durable_image(), options,
                                &recovered, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.checkpoint_lsn, 50u);
  EXPECT_GT(report.wal_records_skipped, 0u);
  EXPECT_EQ(recovered->size(), 79u);  // 80 inserts - 1 erase
  uint32_t value = 0;
  EXPECT_TRUE(recovered->Find(80, &value));
  EXPECT_EQ(value, 800u);
  EXPECT_FALSE(recovered->Find(7));
}

TEST(ManagerTest, CorruptNewestCheckpointFallsBackToPrevious) {
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(options, &table).ok());

  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;
  Manager manager(dopts);
  auto apply = [&](uint32_t key, uint32_t value) {
    ASSERT_TRUE(table->Insert(key, value).ok());
    manager.LogInsert(key, value);
  };
  for (uint32_t i = 1; i <= 30; ++i) apply(i, i);
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(table.get()).ok());
  for (uint32_t i = 31; i <= 60; ++i) apply(i, i);
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(table.get()).ok());
  for (uint32_t i = 61; i <= 70; ++i) apply(i, i);
  ASSERT_TRUE(manager.Commit().ok());

  // Flip a bit inside the newest checkpoint entry's payload.
  std::string ckpt = manager.checkpoints().durable_image();
  auto entries = CheckpointStore::Scan(ckpt);
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_TRUE(entries[1].valid);
  ckpt[entries[1].payload_offset + entries[1].payload_len / 2] ^= 0x08;

  std::unique_ptr<Table> recovered;
  RecoveryReport report;
  Status st = RecoverFromImages(ckpt, manager.wal().durable_image(), options,
                                &recovered, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.checkpoints_corrupt, 1u);
  EXPECT_EQ(report.checkpoint_lsn, 30u);  // fell back to the previous one
  // The WAL was only truncated to the previous checkpoint, so the longer
  // suffix replay still reconstructs everything.
  EXPECT_EQ(recovered->size(), 70u);
  for (uint32_t i = 1; i <= 70; ++i) {
    EXPECT_TRUE(recovered->Find(i)) << i;
  }
}

TEST(ManagerTest, TruncationKeepsRecordsBackToPreviousCheckpoint) {
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(options, &table).ok());
  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;
  Manager manager(dopts);
  for (uint32_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(table->Insert(i, i).ok());
    manager.LogInsert(i, i);
  }
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(table.get()).ok());
  EXPECT_EQ(manager.wal().truncations(), 0u);  // first checkpoint: no trim
  for (uint32_t i = 21; i <= 40; ++i) {
    ASSERT_TRUE(table->Insert(i, i).ok());
    manager.LogInsert(i, i);
  }
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(table.get()).ok());
  EXPECT_EQ(manager.wal().truncations(), 1u);
  WalFileHeader header;
  const std::string& image = manager.wal().durable_image();
  ASSERT_EQ(ParseWalFileHeader(image.data(), image.size(), &header),
            ParseResult::kOk);
  EXPECT_EQ(header.first_lsn, 21u);  // records after checkpoint #1 retained
}

// One fixed checkpointing run on a one-worker grid (so the bucket layout,
// and with it every snapshot byte, is deterministic): six rounds of a
// group-committed write batch followed by a checkpoint, under at most one
// injected fault.  After every step the size and CRC of both durable
// images are folded into `digest`, so a pinned digest fixes every byte
// each checkpoint, prune, truncation, kill point and I/O fault leaves
// behind.
struct DurableTrail {
  uint32_t digest = 0;
  size_t checkpoint_bytes = 0;
  size_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  bool dead = false;
};

DurableTrail RunCheckpointRounds(const gpusim::FaultInjectorConfig& cfg) {
  gpusim::Grid grid(1);
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.grid = &grid;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  EXPECT_TRUE(Table::Create(options, &table).ok());
  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;  // manual checkpoints only
  gpusim::ScopedFaultInjection scoped(cfg);
  Manager manager(dopts);

  DurableTrail trail;
  auto record_step = [&] {
    for (const std::string* image : {&manager.checkpoints().durable_image(),
                                     &manager.wal().durable_image()}) {
      const uint64_t fact[2] = {image->size(),
                                Crc32Update(0, image->data(), image->size())};
      trail.digest = Crc32Update(trail.digest, fact, sizeof(fact));
    }
  };
  constexpr uint32_t kInsertsPerRound = 2000;
  constexpr uint32_t kErasesPerRound = 500;
  SplitMix64 rng(0x5EED);
  for (uint32_t round = 0; round < 6 && !manager.dead(); ++round) {
    // Fresh keys, then erases of keys from earlier rounds: the two sets are
    // disjoint, so the table and the log agree whatever the batch order.
    std::vector<uint32_t> keys(kInsertsPerRound), values(kInsertsPerRound);
    for (uint32_t i = 0; i < kInsertsPerRound; ++i) {
      keys[i] = round * kInsertsPerRound + i + 1;
      values[i] = static_cast<uint32_t>(rng.Next());
      manager.LogInsert(keys[i], values[i]);
    }
    EXPECT_TRUE(table->BulkInsert(keys, values).ok());
    std::vector<uint32_t> erase;
    for (uint32_t i = 0; round > 0 && i < kErasesPerRound; ++i) {
      erase.push_back(1 + static_cast<uint32_t>(
                              rng.Next() % (round * kInsertsPerRound)));
      manager.LogErase(erase.back());
    }
    EXPECT_TRUE(table->BulkErase(erase).ok());
    Status st = manager.Commit();
    EXPECT_TRUE(st.ok() || st.IsInternal() || manager.dead()) << st.ToString();
    record_step();
    if (manager.dead()) break;
    st = manager.CheckpointNow(table.get());
    EXPECT_TRUE(st.ok() || st.IsInternal() || manager.dead()) << st.ToString();
    record_step();
  }
  trail.checkpoint_bytes = manager.checkpoints().durable_image().size();
  trail.wal_bytes = manager.wal().durable_image().size();
  trail.checkpoints = manager.stats().checkpoints;
  trail.dead = manager.dead();
  return trail;
}

// Pins the durable bytes of the checkpoint protocol: every I/O fault kind
// on the fourth checkpoint's entry write (flush #10: each round is a data
// commit, the entry, the mark's commit) and on the data commit just before
// it (flush #9); every ckpt.* kill point at the fourth checkpoint; the
// fourth truncation; and every wal.commit.* kill point at the fourth
// round's data commit (their seventh crossing).
TEST(ManagerTest, CheckpointCrashPathsPersistPinnedImages) {
  using Cfg = gpusim::FaultInjectorConfig;
  auto at_flush = [](int64_t Cfg::*fault, int64_t flush) {
    Cfg cfg;
    cfg.seed = 21;
    cfg.*fault = flush;
    return cfg;
  };
  auto kill_at = [](const char* point, int64_t crossing) {
    Cfg cfg;
    cfg.kill_at_point = crossing;
    cfg.kill_point_filter = point;
    return cfg;
  };
  const struct {
    std::string name;
    Cfg cfg;
    DurableTrail want;
  } cases[] = {
      {"none", {}, {0xddaa99e6u, 145984, 60594, 6, false}},
      {"entry_fail", at_flush(&Cfg::io_fail_nth_flush, 10),
       {0x29e8a1c3u, 145984, 60594, 5, false}},
      {"entry_short", at_flush(&Cfg::io_short_write_at_flush, 10),
       {0x74f6c103u, 105448, 121094, 3, true}},
      {"entry_torn", at_flush(&Cfg::io_torn_write_at_flush, 10),
       {0xd5a00f0au, 75214, 121094, 3, true}},
      {"entry_bit_flip", at_flush(&Cfg::io_bit_flip_at_flush, 10),
       {0x895af43du, 123424, 121094, 3, true}},
      {"commit_fail", at_flush(&Cfg::io_fail_nth_flush, 9),
       {0xd7c03694u, 145984, 60594, 5, false}},
      {"commit_short", at_flush(&Cfg::io_short_write_at_flush, 9),
       {0x86518e93u, 69608, 120233, 3, true}},
      {"commit_torn", at_flush(&Cfg::io_torn_write_at_flush, 9),
       {0xc4127a59u, 69608, 120236, 3, true}},
      {"commit_bit_flip", at_flush(&Cfg::io_bit_flip_at_flush, 9),
       {0x5acb2b5du, 69608, 121094, 3, true}},
      {"wal.commit.before", kill_at("wal.commit.before", 6),
       {0x4220d681u, 69608, 60594, 3, true}},
      {"wal.commit.mid", kill_at("wal.commit.mid", 6),
       {0x238f4224u, 69608, 91844, 3, true}},
      {"wal.commit.after", kill_at("wal.commit.after", 6),
       {0x33cdb502u, 69608, 121094, 3, true}},
      {"ckpt.begin", kill_at("ckpt.begin", 3),
       {0xe7db0966u, 69608, 121094, 3, true}},
      {"ckpt.mid", kill_at("ckpt.mid", 3),
       {0x3569af81u, 70632, 121094, 3, true}},
      {"ckpt.entry_end", kill_at("ckpt.entry_end", 3),
       {0x7cfabc7fu, 123424, 121094, 3, true}},
      {"ckpt.mark", kill_at("ckpt.mark", 3),
       {0x8cfc49a1u, 123424, 121119, 3, true}},
      {"wal.truncate.after", kill_at("wal.truncate.after", 3),
       {0x9fe3cd15u, 161488, 60594, 5, true}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const DurableTrail got = RunCheckpointRounds(c.cfg);
    EXPECT_EQ(got.digest, c.want.digest);
    EXPECT_EQ(got.checkpoint_bytes, c.want.checkpoint_bytes);
    EXPECT_EQ(got.wal_bytes, c.want.wal_bytes);
    EXPECT_EQ(got.checkpoints, c.want.checkpoints);
    EXPECT_EQ(got.dead, c.want.dead);
  }
}

// The writers trust their own bookkeeping instead of re-reading what they
// wrote: the checkpoint store prunes from its entry index and the WAL is
// cut at the offset recorded when the previous checkpoint was taken.  A
// seeded run of group commits and checkpoints, with clean I/O failures
// mixed in (they must leave both records untouched), checks after every
// step that the index equals Scan() of the store's image, that the newest
// recorded cut equals the ParseFrame walk of the log, and that each
// truncation cut exactly at the previous checkpoint.
TEST(ManagerTest, WriterBookkeepingMatchesFullScan) {
  const uint64_t seed = testing::ChaosSeedFromEnv(1);
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_wal", seed));
  SplitMix64 rng(seed);
  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(options, &table).ok());
  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;  // manual checkpoints only
  dopts.keep_checkpoints = 2 + static_cast<int>(rng.Next() % 3);
  gpusim::FaultInjectorConfig cfg;
  cfg.seed = seed;
  cfg.io_flush_fail_probability = 0.15;
  gpusim::ScopedFaultInjection scoped(cfg);
  Manager manager(dopts);

  auto expect_matches_scan = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::string& ckpt = manager.checkpoints().durable_image();
    EXPECT_EQ(manager.checkpoints().entries(), CheckpointStore::Scan(ckpt));
    const Wal& wal = manager.wal();
    if (manager.last_checkpoint_lsn() > 0) {
      EXPECT_EQ(wal.ImageOffset(manager.last_checkpoint_cut()),
                Wal::ScanCut(wal.durable_image(),
                             manager.last_checkpoint_lsn()));
    }
  };
  uint64_t checked_truncations = 0;
  for (int step = 0; step < 80; ++step) {
    // A batch of distinct keys: upserts, then erases of other keys.
    std::vector<uint32_t> keys(1 + rng.Next() % 400);
    for (uint32_t& k : keys) k = 1 + static_cast<uint32_t>(rng.Next() % 5000);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const size_t inserts = keys.size() - keys.size() / 4;
    std::vector<uint32_t> values(inserts);
    for (size_t i = 0; i < inserts; ++i) {
      values[i] = static_cast<uint32_t>(rng.Next());
      manager.LogInsert(keys[i], values[i]);
    }
    ASSERT_TRUE(table->BulkInsert(std::span<const uint32_t>(keys.data(),
                                                            inserts),
                                  values)
                    .ok());
    for (size_t i = inserts; i < keys.size(); ++i) manager.LogErase(keys[i]);
    ASSERT_TRUE(table->BulkErase(std::span<const uint32_t>(
                                     keys.data() + inserts,
                                     keys.size() - inserts))
                    .ok());
    Status st = manager.Commit();
    ASSERT_TRUE(st.ok() || st.IsInternal()) << st.ToString();
    expect_matches_scan(step);
    if (rng.Next() % 3 != 0) continue;

    const WalCut previous = manager.last_checkpoint_cut();
    const uint64_t truncations = manager.wal().truncations();
    st = manager.CheckpointNow(table.get());
    ASSERT_TRUE(st.ok() || st.IsInternal()) << st.ToString();
    ASSERT_FALSE(manager.dead());
    expect_matches_scan(step);
    if (manager.wal().truncations() > truncations) {
      // The log now starts with the first record after the previous
      // checkpoint.
      const std::string& image = manager.wal().durable_image();
      WalFileHeader header;
      ASSERT_EQ(ParseWalFileHeader(image.data(), image.size(), &header),
                ParseResult::kOk);
      EXPECT_EQ(header.first_lsn, previous.lsn + 1);
      ParsedRecord first;
      ASSERT_EQ(ParseFrame(image.data() + kWalFileHeaderBytes,
                           image.size() - kWalFileHeaderBytes, &first),
                ParseResult::kOk);
      EXPECT_EQ(first.lsn, previous.lsn + 1);
      ++checked_truncations;
    }
  }
  // The run exercised the paths it checks: failures, prunes, truncations.
  EXPECT_GT(manager.stats().commit_failures +
                manager.stats().checkpoint_failures,
            0u);
  EXPECT_GT(manager.checkpoints().prunes(), 0u);
  EXPECT_GT(checked_truncations, 3u);
}

// Appends an entry wrapping `payload`, an arbitrary byte string.
Status AppendPayload(CheckpointStore* store, uint64_t checkpoint_lsn,
                     const std::string& payload) {
  return store->AppendEntry(checkpoint_lsn,
                            [&](std::string* out, uint32_t* crc) {
                              out->append(payload);
                              *crc = Crc32Update(0, payload.data(),
                                                 payload.size());
                              return Status::OK();
                            });
}

TEST(CheckpointStoreTest, PruneKeepsNewestTwoEntries) {
  CheckpointStore store;
  ASSERT_TRUE(AppendPayload(&store, 10, std::string(100, 'a')).ok());
  ASSERT_TRUE(AppendPayload(&store, 20, std::string(200, 'b')).ok());
  ASSERT_TRUE(AppendPayload(&store, 30, std::string(300, 'c')).ok());
  ASSERT_TRUE(store.PruneToLast(2).ok());
  auto entries = CheckpointStore::Scan(store.durable_image());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].checkpoint_lsn, 20u);
  EXPECT_EQ(entries[1].checkpoint_lsn, 30u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_TRUE(entries[1].valid);
}

TEST(CheckpointStoreTest, ScanFlagsTornTailEntry) {
  CheckpointStore store;
  ASSERT_TRUE(AppendPayload(&store, 10, std::string(100, 'a')).ok());
  std::string image = store.durable_image();
  ASSERT_TRUE(AppendPayload(&store, 20, std::string(200, 'b')).ok());
  // Simulate a crash mid-write of entry #2: keep only half its bytes.
  size_t full = store.durable_image().size();
  image = store.durable_image().substr(0, image.size() + (full - image.size()) / 2);
  auto entries = CheckpointStore::Scan(image);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].valid);
  EXPECT_FALSE(entries[1].valid);
}

TEST(RecoveryTest, SameImagesProduceIdenticalReports) {
  Wal wal;
  for (uint32_t i = 0; i < 25; ++i) wal.AppendInsert(i + 1, i);
  ASSERT_TRUE(wal.Flush().ok());
  std::string image = wal.durable_image();
  image.resize(image.size() - 3);  // torn tail for a non-trivial report

  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  RecoveryReport first, second;
  std::unique_ptr<Table> t1, t2;
  ASSERT_TRUE(RecoverFromImages("", image, options, &t1, &first).ok());
  ASSERT_TRUE(RecoverFromImages("", image, options, &t2, &second).ok());
  EXPECT_EQ(first.Digest(), second.Digest());
  EXPECT_EQ(t1->size(), t2->size());
}

// Replay equivalence: a checkpoint plus a suffix long enough to span two
// replay chunks, over a key space small enough that most keys see long
// insert -> erase -> insert chains, upserts of checkpoint-resident keys and
// erases of absent keys; the last record is torn.  The recovered contents
// must equal a record-by-record std::map replay of the same log, on a
// one-worker and a four-worker grid.  Every report field depends only on
// the log's shape, never on the seed, so the pinned values (the ones a
// record-by-record replay reports) hold for any DYCUCKOO_CHAOS_SEED.
TEST(RecoveryTest, FoldedReplayMatchesSequentialReplay) {
  const uint64_t seed = testing::ChaosSeedFromEnv(1);
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_wal", seed));
  constexpr uint32_t kKeySpace = 2048;
  constexpr uint32_t kCheckpointKeys = 1024;
  constexpr uint32_t kSuffixWrites = 70000;  // > one 1 << 16 replay chunk
  constexpr uint32_t kCutoverAt = 40000;

  DyCuckooOptions build_options;
  gpusim::DeviceArena build_arena(0);
  build_options.arena = &build_arena;
  std::unique_ptr<Table> live;
  ASSERT_TRUE(Table::Create(build_options, &live).ok());
  DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 0;  // manual checkpoints only
  Manager manager(dopts);

  std::map<uint32_t, uint32_t> model;
  for (uint32_t k = 1; k <= kCheckpointKeys; ++k) {
    ASSERT_TRUE(live->Insert(k, k * 7).ok());
    manager.LogInsert(k, k * 7);
    model[k] = k * 7;
  }
  ASSERT_TRUE(manager.Commit().ok());
  ASSERT_TRUE(manager.CheckpointNow(live.get()).ok());

  SplitMix64 rng(seed);
  for (uint32_t i = 0; i < kSuffixWrites; ++i) {
    if (i == kCutoverAt) manager.LogReshardCutover(3, 5, 2, 4);
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Next() % kKeySpace);
    if (rng.Next() % 100 < 55) {
      const uint32_t v = 1000000 + i;  // distinct per record: stale = wrong
      manager.LogInsert(k, v);
      model[k] = v;
    } else {
      manager.LogErase(k);
      model.erase(k);
    }
  }
  manager.LogInsert(kKeySpace + 1, 1);  // torn below: never acknowledged
  ASSERT_TRUE(manager.Commit().ok());
  std::string wal_image = manager.wal().durable_image();
  wal_image.resize(wal_image.size() - 3);

  const std::vector<std::pair<uint32_t, uint32_t>> expected(model.begin(),
                                                            model.end());
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("grid workers " + std::to_string(workers));
    gpusim::Grid grid(workers);
    gpusim::DeviceArena arena(0);
    DyCuckooOptions options;
    options.arena = &arena;
    options.grid = &grid;
    std::unique_ptr<Table> recovered;
    RecoveryReport report;
    Status st = RecoverFromImages(manager.checkpoints().durable_image(),
                                  wal_image, options, &recovered, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();

    auto contents = recovered->Dump();
    std::sort(contents.begin(), contents.end());
    EXPECT_EQ(recovered->size(), expected.size());
    EXPECT_TRUE(contents == expected)
        << "recovered " << contents.size() << " pairs, sequential replay "
        << expected.size();

    EXPECT_EQ(report.checkpoint_lsn, 1024u);
    EXPECT_EQ(report.checkpoints_scanned, 1u);
    EXPECT_EQ(report.checkpoints_corrupt, 0u);
    EXPECT_EQ(report.wal_records_scanned, 71026u);
    EXPECT_EQ(report.wal_records_applied, 70000u);
    EXPECT_EQ(report.wal_records_skipped, 1024u);
    EXPECT_EQ(report.last_lsn, 71026u);
    EXPECT_EQ(report.torn_tail_bytes, kInsertFrameBytes - 3);
    ASSERT_EQ(report.reshard_cutovers.size(), 1u);
    EXPECT_EQ(report.reshard_cutovers[0].generation, 3u);
    EXPECT_EQ(report.reshard_cutovers[0].chunk, 5u);
    EXPECT_EQ(report.Digest(), 1758647226399057927ull) << report.ToString();
  }
}

// Replay that needs the table to grow, with every allocation after the
// empty table's own failing: the replayed keys do not fit the device
// memory the table may use, and recovery must report that instead of
// returning OK.
TEST(RecoveryTest, AllocFaultDuringReplayFailsRecovery) {
  Wal wal;
  for (uint32_t k = 1; k <= 8000; ++k) wal.AppendInsert(k, k);
  ASSERT_TRUE(wal.Flush().ok());

  gpusim::DeviceArena arena(0);
  DyCuckooOptions options;
  options.arena = &arena;
  options.initial_capacity = 4096;
  uint64_t create_allocs = 0;
  {
    gpusim::ScopedFaultInjection counting(gpusim::FaultInjectorConfig{});
    std::unique_ptr<Table> probe;
    ASSERT_TRUE(Table::Create(options, &probe).ok());
    create_allocs = counting.injector().allocations_seen();
  }
  gpusim::FaultInjectorConfig cfg;
  cfg.fail_after_allocs = static_cast<int64_t>(create_allocs);
  gpusim::ScopedFaultInjection scoped(cfg);
  std::unique_ptr<Table> table;
  RecoveryReport report;
  Status st =
      RecoverFromImages("", wal.durable_image(), options, &table, &report);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(table, nullptr);
  EXPECT_GT(scoped.injector().allocations_failed(), 0u);
}

}  // namespace
}  // namespace durability
}  // namespace dycuckoo
