// Unit tests for the durability subsystem: WAL framing, group commit,
// head truncation, the checkpoint store, and point-in-time recovery.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
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
  for (uint32_t i = 0; i < 10; ++i) wal.AppendInsert(i + 1, i);
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.TruncateHead(/*checkpoint_lsn=*/4).ok());
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

TEST(CheckpointStoreTest, PruneKeepsNewestTwoEntries) {
  CheckpointStore store;
  ASSERT_TRUE(store.AppendEntry(10, std::string(100, 'a')).ok());
  ASSERT_TRUE(store.AppendEntry(20, std::string(200, 'b')).ok());
  ASSERT_TRUE(store.AppendEntry(30, std::string(300, 'c')).ok());
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
  ASSERT_TRUE(store.AppendEntry(10, std::string(100, 'a')).ok());
  std::string image = store.durable_image();
  ASSERT_TRUE(store.AppendEntry(20, std::string(200, 'b')).ok());
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
