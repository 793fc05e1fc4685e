// Silent data corruption defense, end to end: per-slot integrity tags in
// the subtable, the deterministic device-memory fault sweep in the arena,
// scrub-verify detection with the attribution policy, targeted
// repair-from-durability (DurabilityManager::PointLookup), and the
// escalation ladder (breaker ForceOpen -> shard quarantine -> heal).
//
// The soak tests pin the PR's acceptance guarantees:
//   * every planted flip is detected within one full scrub pass;
//   * after repair, no acknowledged key is ever served a corrupted value;
//   * a clean (fault-free) soak reports zero corrupted slots — the tag
//     discipline has no false positives under the full mutation mix;
//   * the same DYCUCKOO_CHAOS_SEED replays bit-identically.
//
// Reproduce a CI failure locally with DYCUCKOO_CHAOS_SEED=<seed>; shard
// count for the sharded scenario comes from DYCUCKOO_SHARDS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "durability/log_format.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/sharded.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "dycuckoo/subtable.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "service/scrubber.h"
#include "service/sharded_server.h"
#include "service/table_server.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using Table = DynamicTable<uint32_t, uint32_t>;
using Sub32 = Subtable<uint32_t, uint32_t>;
using Manager = durability::DurabilityManager<uint32_t, uint32_t>;
using durability::PointLookupResult;
using Server = service::TableServer<uint32_t, uint32_t>;
using Sharded = service::ShardedTableServer<uint32_t, uint32_t>;
using OpType = Server::OpType;

uint64_t SeedFromEnv() {
  const char* s = std::getenv("DYCUCKOO_CHAOS_SEED");
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : 42;
}

uint32_t ShardsFromEnv() {
  const char* s = std::getenv("DYCUCKOO_SHARDS");
  if (s == nullptr || *s == '\0') return 4;
  unsigned long n = std::strtoul(s, nullptr, 10);
  return n >= 1 && n <= 64 ? static_cast<uint32_t>(n) : 4;
}

std::unique_ptr<Table> MakeTable(DyCuckooOptions o) {
  std::unique_ptr<Table> t;
  Status st = Table::Create(o, &t);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t;
}

// --- Tag scheme unit tests ------------------------------------------------

TEST(IntegrityTag, Crc32KnownAnswer) {
  // The CRC-32 check value (IEEE 802.3, reflected): CRC("123456789").
  // If this breaks, every stored tag silently changes meaning.
  EXPECT_EQ(Crc32Update(0, "123456789", 9), 0xCBF43926u);
}

TEST(IntegrityTag, FreshSubtableTagsCoverEmptySlots) {
  gpusim::DeviceArena arena{16 << 20};
  Sub32 t(16, 42, &arena, "tags");
  ASSERT_TRUE(t.ok());
  const uint8_t empty_tag = Sub32::ExpectedTag(Sub32::kEmptyKey, 0);
  for (uint64_t b = 0; b < t.num_buckets(); ++b) {
    for (int s = 0; s < Sub32::kSlots; ++s) {
      ASSERT_EQ(t.TagAt(b, s), empty_tag) << "bucket " << b << " slot " << s;
    }
  }
}

TEST(IntegrityTag, InvariantHoldsThroughEveryMutationPrimitive) {
  gpusim::DeviceArena arena{16 << 20};
  Sub32 t(8, 42, &arena, "tags");
  ASSERT_TRUE(t.ok());
  auto expect_sealed = [&](uint64_t b, int s) {
    ASSERT_EQ(t.TagAt(b, s), Sub32::ExpectedTag(t.KeyAt(b, s),
                                                t.ValueAt(b, s)));
  };
  t.StoreSlot(3, 5, 0xBEEF, 77);
  expect_sealed(3, 5);
  t.StoreValue(3, 5, 78);               // upsert in place
  expect_sealed(3, 5);
  t.StoreValueRacy(3, 5, 79);           // racy last-writer-wins path
  expect_sealed(3, 5);
  ASSERT_TRUE(t.CasKey(3, 5, 0xBEEF, Sub32::kEmptyKey));  // lock-free delete
  expect_sealed(3, 5);
  ASSERT_FALSE(t.CasKey(3, 5, 0xBEEF, 1));  // lost CAS: no delta applied
  expect_sealed(3, 5);
  t.StoreKey(3, 5, 0xF00D);             // re-publish
  expect_sealed(3, 5);
  t.StoreSlotFresh(2, 0, 0xAAAA, 5, Sub32::ExpectedTag(0xAAAA, 5));
  expect_sealed(2, 0);
}

TEST(IntegrityTag, CorruptBitBreaksSealAndResyncRestoresIt) {
  gpusim::DeviceArena arena{16 << 20};
  Sub32 t(8, 42, &arena, "tags");
  ASSERT_TRUE(t.ok());
  t.StoreSlot(1, 2, 1234, 5678);
  for (int region = 0; region < 3; ++region) {
    t.CorruptBitForTest(1, 2, region, /*bit=*/3);
    EXPECT_NE(t.TagAt(1, 2), Sub32::ExpectedTag(t.KeyAt(1, 2),
                                                t.ValueAt(1, 2)))
        << "region " << region << " flip was invisible to the tag";
    t.CorruptBitForTest(1, 2, region, /*bit=*/3);  // flip back
    EXPECT_EQ(t.TagAt(1, 2), Sub32::ExpectedTag(t.KeyAt(1, 2),
                                                t.ValueAt(1, 2)));
  }
  t.CorruptBitForTest(1, 2, /*region=*/2, /*bit=*/0);
  t.ResyncTag(1, 2);
  EXPECT_EQ(t.TagAt(1, 2), Sub32::ExpectedTag(1234, 5678));
}

// --- Table-level detection ------------------------------------------------

TEST(IntegrityScrub, DetectsPlantedFlipsInEveryRegion) {
  DyCuckooOptions o;
  o.initial_capacity = 8192;
  o.auto_resize = false;
  auto t = MakeTable(o);
  auto keys = testing::UniqueKeys(2000, 11);
  ASSERT_TRUE(t->BulkInsert(keys, testing::SequentialValues(keys.size())).ok());

  // One victim per region; everything else must stay clean (no false
  // positives from neighboring slots).
  ASSERT_TRUE(t->CorruptSlotBitForTest(keys[10], /*region=*/0));  // key
  ASSERT_TRUE(t->CorruptSlotBitForTest(keys[20], /*region=*/1));  // value
  ASSERT_TRUE(t->CorruptSlotBitForTest(keys[30], /*region=*/2));  // tag

  auto report = t->ScrubAll();
  EXPECT_EQ(report.corrupted_slots, 3u);
  // The value- and tag-region victims keep their stored key intact and
  // in-home, so they are attributable; the key-region victim's stored key
  // no longer names the original and (almost surely) mis-homes.
  EXPECT_GE(report.corrupted_keys.size(), 2u);
  EXPECT_LE(report.corrupted_unattributable, 1u);
  // Every corrupted slot was unpublished: the damaged bits are unservable.
  EXPECT_FALSE(t->Find(keys[20]));
  // And after the scrub the table is internally consistent again.
  EXPECT_TRUE(t->Validate().ok()) << t->Validate().ToString();
  EXPECT_EQ(t->stats().Capture().scrub_corrupted_slots, 3u);

  // Undamaged keys are untouched.
  for (size_t i = 100; i < 200; ++i) {
    uint32_t v = 0;
    ASSERT_TRUE(t->Find(keys[i], &v));
    ASSERT_EQ(v, static_cast<uint32_t>(i));
  }
}

TEST(IntegrityScrub, DetectsCorruptionInTheStash) {
  DyCuckooOptions o;
  o.auto_resize = false;
  o.initial_capacity = 512;
  o.max_eviction_chain = 8;
  o.stash_capacity = 256;
  auto t = MakeTable(o);
  auto keys = testing::UniqueKeys(620, 3);
  ASSERT_TRUE(t->BulkInsert(keys, testing::SequentialValues(keys.size())).ok());
  ASSERT_GT(t->stash_size(), 0u);

  // Flip one value bit in EVERY key's resident copy — bucket or stash,
  // wherever it landed.  A scrub must find them all: exactly one
  // detection per live pair, none laundered, none double-counted.
  for (uint32_t k : keys) {
    ASSERT_TRUE(t->CorruptSlotBitForTest(k, /*region=*/1, /*bit=*/0));
  }
  auto report = t->ScrubAll();
  EXPECT_EQ(report.corrupted_slots, keys.size());
  EXPECT_EQ(report.corrupted_keys.size(), keys.size());
  EXPECT_EQ(report.corrupted_unattributable, 0u);
  EXPECT_EQ(t->size(), 0u) << "every corrupted pair must be unpublished";
  EXPECT_EQ(t->stash_size(), 0u);
  EXPECT_TRUE(t->Validate().ok());
}

TEST(IntegrityScrub, ResizeCarriesCorruptionEvidenceInsteadOfLaunderingIt) {
  DyCuckooOptions o;
  o.initial_capacity = 4096;
  o.auto_resize = false;
  auto t = MakeTable(o);
  auto keys = testing::UniqueKeys(1500, 19);
  ASSERT_TRUE(t->BulkInsert(keys, testing::SequentialValues(keys.size())).ok());
  ASSERT_TRUE(t->CorruptSlotBitForTest(keys[7], /*region=*/1));

  // An upsize copies every pair into a fresh subtable.  The tag must
  // travel verbatim: recomputing it over the corrupt bytes would erase
  // the only evidence that keys[7]'s value is damaged.
  ASSERT_TRUE(t->Upsize().ok());
  auto report = t->ScrubAll();
  EXPECT_EQ(report.corrupted_slots, 1u);
  ASSERT_EQ(report.corrupted_keys.size(), 1u);
  EXPECT_EQ(report.corrupted_keys[0], keys[7]);
}

TEST(IntegrityScrub, CleanMixedWorkloadHasZeroFalsePositives) {
  // Inserts, upserts, erases, auto-resize both ways, stash traffic — all
  // tag-delta paths exercised; the scrub must find nothing.
  DyCuckooOptions o;
  o.initial_capacity = 2048;
  o.stash_capacity = 128;
  auto t = MakeTable(o);
  SplitMix64 rng(9);
  std::vector<uint32_t> live;
  for (int round = 0; round < 40; ++round) {
    std::vector<uint32_t> ks, vs;
    for (int i = 0; i < 400; ++i) {
      uint32_t k = static_cast<uint32_t>(rng.Next() % 60000) + 1;
      ks.push_back(k);
      vs.push_back(static_cast<uint32_t>(rng.Next()));
    }
    ASSERT_TRUE(t->BulkInsert(ks, vs).ok());
    live.insert(live.end(), ks.begin(), ks.end());
    if (round % 3 == 2) {
      size_t half = live.size() / 2;
      ASSERT_TRUE(
          t->BulkErase(std::span<const uint32_t>(live.data(), half)).ok());
      live.erase(live.begin(), live.begin() + half);
    }
  }
  auto report = t->ScrubAll();
  EXPECT_EQ(report.corrupted_slots, 0u);
  EXPECT_EQ(report.corrupted_unattributable, 0u);
  EXPECT_TRUE(t->Validate().ok()) << t->Validate().ToString();
}

// --- Device-memory fault sweep (gpusim layer) -----------------------------

TEST(MemorySweep, SameSeedCorruptsTheSameBytes) {
  auto run = [](std::vector<uint8_t>* out) {
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = 77;
    cfg.mem_faults_per_sweep = 8;
    cfg.mem_bits_per_fault = 2;
    gpusim::ScopedFaultInjection scoped(cfg);
    gpusim::DeviceArena arena{1 << 20};
    auto* a = arena.AllocateArray<std::atomic<uint8_t>>(512, "kv-a");
    auto* b = arena.AllocateArray<std::atomic<uint8_t>>(256, "kv-b");
    for (int i = 0; i < 512; ++i) a[i].store(static_cast<uint8_t>(i));
    for (int i = 0; i < 256; ++i) b[i].store(static_cast<uint8_t>(i * 3));
    auto report = arena.InjectMemoryFaults();
    EXPECT_EQ(report.faults_seen, 8u);
    EXPECT_EQ(report.faults_injected, 8u);  // bit flips always change bytes
    out->clear();
    for (int i = 0; i < 512; ++i) out->push_back(a[i].load());
    for (int i = 0; i < 256; ++i) out->push_back(b[i].load());
    arena.FreeArray(a);
    arena.FreeArray(b);
  };
  std::vector<uint8_t> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second) << "memory-fault sweep must replay bit-identically";
}

TEST(MemorySweep, TagFilterMakesOtherAllocationsInvisible) {
  gpusim::FaultInjectorConfig cfg;
  cfg.seed = 5;
  cfg.mem_faults_per_sweep = 16;
  cfg.mem_tag_filter = "/kv";
  gpusim::ScopedFaultInjection scoped(cfg);
  gpusim::DeviceArena arena{1 << 20};
  auto* guarded = arena.AllocateArray<std::atomic<uint8_t>>(128, "t0/kv-keys");
  auto* locks = arena.AllocateArray<std::atomic<uint8_t>>(128, "t0/locks");
  for (int i = 0; i < 128; ++i) {
    guarded[i].store(0);
    locks[i].store(0);
  }
  auto report = arena.InjectMemoryFaults();
  EXPECT_EQ(report.bytes_targeted, 128u);
  EXPECT_EQ(report.faults_injected, 16u);
  bool guarded_changed = false;
  for (int i = 0; i < 128; ++i) {
    if (guarded[i].load() != 0) guarded_changed = true;
    ASSERT_EQ(locks[i].load(), 0u) << "fault leaked outside the tag filter";
  }
  EXPECT_TRUE(guarded_changed);
  arena.FreeArray(guarded);
  arena.FreeArray(locks);
}

TEST(MemorySweep, StuckAtFaultOnMatchingBitIsSeenNotInjected) {
  gpusim::FaultInjectorConfig cfg;
  cfg.seed = 5;
  cfg.mem_faults_per_sweep = 16;
  cfg.mem_stuck_at = 0;  // force-to-0 over all-zero memory: no change
  gpusim::ScopedFaultInjection scoped(cfg);
  gpusim::DeviceArena arena{1 << 20};
  auto* a = arena.AllocateArray<std::atomic<uint8_t>>(256, "z");
  for (int i = 0; i < 256; ++i) a[i].store(0);
  auto report = arena.InjectMemoryFaults();
  EXPECT_EQ(report.faults_seen, 16u);
  EXPECT_EQ(report.faults_injected, 0u);
  EXPECT_EQ(scoped.injector().memory_faults_seen(), 16u);
  EXPECT_EQ(scoped.injector().memory_faults_injected(), 0u);
  arena.FreeArray(a);
}

// --- Targeted repair read path (durability) -------------------------------

TEST(PointLookup, ChecksPointBaseThenWalReplayLastActionWins) {
  durability::DurabilityOptions dopt;
  dopt.checkpoint_wal_bytes = 0;  // explicit CheckpointNow only
  Manager mgr(dopt);
  DyCuckooOptions o;
  o.initial_capacity = 4096;
  auto t = MakeTable(o);

  ASSERT_TRUE(t->Insert(100, 1).ok());
  mgr.LogInsert(100, 1);
  ASSERT_TRUE(t->Insert(200, 2).ok());
  mgr.LogInsert(200, 2);
  ASSERT_TRUE(mgr.Commit().ok());
  ASSERT_TRUE(mgr.CheckpointNow(t.get()).ok());  // base: {100:1, 200:2}

  mgr.LogInsert(300, 3);
  mgr.LogErase(100);
  mgr.LogInsert(300, 33);  // last action for 300 wins
  ASSERT_TRUE(mgr.Commit().ok());

  uint32_t v = 0;
  EXPECT_EQ(mgr.PointLookup(200, &v), PointLookupResult::kFound);
  EXPECT_EQ(v, 2u);  // answered by the checkpoint base
  EXPECT_EQ(mgr.PointLookup(300, &v), PointLookupResult::kFound);
  EXPECT_EQ(v, 33u);  // answered by WAL replay, last record wins
  EXPECT_EQ(mgr.PointLookup(100, nullptr), PointLookupResult::kErased);
  EXPECT_EQ(mgr.PointLookup(999, nullptr), PointLookupResult::kAbsent);
}

TEST(PointLookup, WalOnlyLineageAnswersWithoutAnyCheckpoint) {
  Manager mgr{durability::DurabilityOptions{}};
  mgr.LogInsert(7, 70);
  mgr.LogErase(8);
  ASSERT_TRUE(mgr.Commit().ok());
  uint32_t v = 0;
  EXPECT_EQ(mgr.PointLookup(7, &v), PointLookupResult::kFound);
  EXPECT_EQ(v, 70u);
  EXPECT_EQ(mgr.PointLookup(8, nullptr), PointLookupResult::kErased);
  EXPECT_EQ(mgr.PointLookup(9, nullptr), PointLookupResult::kAbsent);
}

// --- PointLookup against Recover, key for key -----------------------------

constexpr uint32_t kLookupUniverse = 48;

struct DurableImages {
  std::string checkpoints;
  std::string wal;
};

// The durable images of a seeded insert/erase stream over keys
// 1..kLookupUniverse: four rounds of 60 ops, one group commit each, and a
// checkpoint after each of the first three.  With `truncate_wal` the log
// keeps only the records after the previous checkpoint.
DurableImages SeededDurableImages(uint64_t seed, bool truncate_wal) {
  durability::DurabilityOptions dopt;
  dopt.checkpoint_wal_bytes = 0;  // explicit CheckpointNow only
  dopt.truncate_wal = truncate_wal;
  Manager mgr(dopt);
  DyCuckooOptions o;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  SplitMix64 rng(seed);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 60; ++i) {
      const auto k = static_cast<uint32_t>(1 + rng.Next() % kLookupUniverse);
      if (rng.Next() % 3 == 0) {
        t->Erase(k);
        mgr.LogErase(k);
      } else {
        const auto v = static_cast<uint32_t>(rng.Next());
        EXPECT_TRUE(t->Insert(k, v).ok());
        mgr.LogInsert(k, v);
      }
    }
    EXPECT_TRUE(mgr.Commit().ok());
    if (round < 3) {
      EXPECT_TRUE(mgr.CheckpointNow(t.get()).ok());
    }
  }
  return {mgr.checkpoints().durable_image(), mgr.wal().durable_image()};
}

// [offset, offset + length) of every record frame in a WAL image.
std::vector<std::pair<size_t, size_t>> WalFrames(const std::string& wal) {
  std::vector<std::pair<size_t, size_t>> frames;
  size_t off = durability::kWalFileHeaderBytes;
  durability::ParsedRecord rec;
  while (off < wal.size() &&
         durability::ParseFrame(wal.data() + off, wal.size() - off, &rec) ==
             durability::ParseResult::kOk) {
    frames.emplace_back(off, rec.frame_len);
    off += rec.frame_len;
  }
  return frames;
}

// Flips one payload byte of checkpoint entry `e`.  With `reseal` the
// entry's own CRC is recomputed, so the frame stays intact and only the
// snapshot inside it is corrupt.
void CorruptCheckpointEntry(std::string* image,
                            const durability::CheckpointEntryView& e,
                            SplitMix64* rng, bool reseal) {
  (*image)[e.payload_offset + rng->Next() % e.payload_len] ^= 0x20;
  if (!reseal) return;
  const size_t crc_at = e.payload_offset + e.payload_len;
  const uint32_t crc = Crc32Update(0, image->data() + e.entry_offset + 8,
                                   crc_at - e.entry_offset - 8);
  std::memcpy(image->data() + crc_at, &crc, sizeof(crc));
}

// For every key of the universe (and a few never written): kFound(v) iff
// the recovered table finds v, kErased/kAbsent iff it does not, and
// kUnreadable iff Recover fails.  `recover_ok` pins which way Recover goes,
// so each scenario covers what it claims to.
void ExpectLookupMatchesRecover(const DurableImages& im, bool recover_ok) {
  std::istringstream ckpt(im.checkpoints);
  std::istringstream wal(im.wal);
  std::unique_ptr<Table> table;
  durability::RecoveryReport report;
  Status st = durability::Recover<uint32_t, uint32_t>(
      ckpt, wal, DyCuckooOptions{}, &table, &report);
  ASSERT_EQ(st.ok(), recover_ok) << st.ToString();
  for (uint32_t k = 1; k <= kLookupUniverse + 4; ++k) {
    uint32_t v = 0;
    const PointLookupResult r = durability::PointLookup<uint32_t, uint32_t>(
        im.checkpoints, im.wal, k, &v);
    if (!st.ok()) {
      EXPECT_EQ(r, PointLookupResult::kUnreadable) << "key " << k;
      continue;
    }
    uint32_t recovered = 0;
    const bool hit = table->Find(k, &recovered);
    EXPECT_NE(r, PointLookupResult::kUnreadable) << "key " << k;
    EXPECT_EQ(r == PointLookupResult::kFound, hit)
        << "key " << k << ": lookup " << static_cast<int>(r);
    if (hit && r == PointLookupResult::kFound) {
      EXPECT_EQ(v, recovered) << "key " << k;
    }
  }
}

TEST(PointLookup, AnswersExactlyWhatRecoverRebuilds) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_integrity", seed));
  SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const DurableImages clean = SeededDurableImages(seed, /*truncate_wal=*/true);
  const auto entries = durability::CheckpointStore::Scan(clean.checkpoints);
  ASSERT_EQ(entries.size(), 2u);  // pruned to the last two
  const auto frames = WalFrames(clean.wal);
  ASSERT_GE(frames.size(), 3u);

  {
    SCOPED_TRACE("checkpoint plus suffix");
    ExpectLookupMatchesRecover(clean, true);
  }
  for (bool reseal : {false, true}) {
    SCOPED_TRACE(reseal ? "newest snapshot corrupt inside an intact entry"
                        : "newest checkpoint entry corrupt");
    DurableImages im = clean;
    CorruptCheckpointEntry(&im.checkpoints, entries.back(), &rng, reseal);
    ExpectLookupMatchesRecover(im, true);
  }
  for (bool truncated : {false, true}) {
    SCOPED_TRACE(truncated ? "all checkpoints corrupt, WAL truncated"
                           : "all checkpoints corrupt, WAL untruncated");
    DurableImages im = SeededDurableImages(seed, truncated);
    for (const auto& e : durability::CheckpointStore::Scan(im.checkpoints)) {
      CorruptCheckpointEntry(&im.checkpoints, e, &rng, /*reseal=*/true);
    }
    ExpectLookupMatchesRecover(im, /*recover_ok=*/!truncated);
  }
  {
    SCOPED_TRACE("torn tail");
    DurableImages im = clean;
    const auto& [off, len] = frames.back();
    im.wal.resize(off + 1 + rng.Next() % (len - 1));
    ExpectLookupMatchesRecover(im, true);
  }
  {
    SCOPED_TRACE("mid-log corruption");
    DurableImages im = clean;
    const auto& [off, len] = frames[rng.Next() % (frames.size() - 1)];
    im.wal[off + rng.Next() % len] ^= 0x04;
    ExpectLookupMatchesRecover(im, false);
  }
  {
    SCOPED_TRACE("LSN gap");
    DurableImages im = clean;
    const auto& [off, len] = frames[rng.Next() % (frames.size() - 1)];
    im.wal.erase(off, len);
    ExpectLookupMatchesRecover(im, false);
  }
}

// --- Scrubber surfacing ---------------------------------------------------

TEST(IntegrityScrubber, SliceReportCarriesCorruptedKeysTotalsStayBounded) {
  DyCuckooOptions o;
  o.initial_capacity = 4096;
  o.auto_resize = false;
  auto t = MakeTable(o);
  auto keys = testing::UniqueKeys(1000, 13);
  ASSERT_TRUE(t->BulkInsert(keys, testing::SequentialValues(keys.size())).ok());
  ASSERT_TRUE(t->CorruptSlotBitForTest(keys[0], /*region=*/1));

  service::OnlineScrubber<uint32_t, uint32_t> scrubber(t.get());
  std::vector<uint32_t> surfaced;
  while (scrubber.full_passes() == 0) {
    auto slice = scrubber.Step(64);
    surfaced.insert(surfaced.end(), slice.corrupted_keys.begin(),
                    slice.corrupted_keys.end());
  }
  ASSERT_EQ(surfaced.size(), 1u);
  EXPECT_EQ(surfaced[0], keys[0]);
  EXPECT_EQ(scrubber.totals().corrupted_slots, 1u);
  // Counters accumulate; the key list does not (a long-lived scrubber
  // must not grow without bound).
  EXPECT_TRUE(scrubber.totals().corrupted_keys.empty());
}

// --- Serving-layer escalation ---------------------------------------------

Server::Request InsertReq(std::span<const uint32_t> keys,
                          std::span<const uint32_t> values) {
  Server::Request req;
  for (size_t i = 0; i < keys.size(); ++i) {
    req.ops.push_back(Server::Op{OpType::kInsert, keys[i], values[i]});
  }
  return req;
}

Server::Request FindReq(std::span<const uint32_t> keys) {
  Server::Request req;
  for (uint32_t k : keys) req.ops.push_back(Server::Op{OpType::kFind, k, 0});
  return req;
}

/// Steps the (idle-queue) server until the scrubber completes `n` more
/// full passes.  "Detected within one full scrub pass" means one pass
/// that STARTS after the fault: the cursor may be mid-table when the
/// fault lands, so pumping to the next boundary only covers the tail —
/// callers pass n=2 to guarantee one complete pass after the plant.
void PumpFullScrubPasses(Server* server, uint64_t n) {
  const uint64_t target = server->scrubber().full_passes() + n;
  uint64_t guard = 0;
  while (server->scrubber().full_passes() < target) {
    server->Step();
    ASSERT_LT(++guard, 200000u) << "scrub pass did not complete";
  }
}

TEST(IntegrityEscalation, RepairsCorruptedValueFromDurableStateEndToEnd) {
  service::TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 128;
  sopt.resize_on_scrub_violation = false;
  DyCuckooOptions topt;
  topt.initial_capacity = 8192;
  topt.auto_resize = false;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, sopt, &server).ok());
  Manager mgr{durability::DurabilityOptions{}};
  server->AttachDurability(&mgr);

  auto keys = testing::UniqueKeys(1200, 21);
  auto values = testing::SequentialValues(keys.size(), 500);
  uint64_t w = server->Submit(InsertReq(keys, values));
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(w, &resp));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();

  ASSERT_TRUE(server->table()->CorruptSlotBitForTest(keys[42], /*region=*/1));
  uint32_t bad = 0;
  ASSERT_TRUE(server->table()->Find(keys[42], &bad));
  ASSERT_NE(bad, values[42]) << "flip did not take";

  PumpFullScrubPasses(server.get(), 2);

  // Repaired from the WAL: the acknowledged value is served again, the
  // breaker never opened, and the sticky flag never latched.
  uint32_t got = 0;
  ASSERT_TRUE(server->table()->Find(keys[42], &got));
  EXPECT_EQ(got, values[42]);
  auto stats = server->stats().Capture();
  EXPECT_EQ(stats.scrub_corruption_detected, 1u);
  EXPECT_EQ(stats.scrub_corruption_repaired, 1u);
  EXPECT_EQ(stats.scrub_corruption_unrepairable, 0u);
  EXPECT_FALSE(server->integrity_compromised());
  EXPECT_FALSE(server->read_only());
  EXPECT_EQ(server->table()->stats().Capture().scrub_repaired_from_wal, 1u);
}

TEST(IntegrityEscalation, ErasedKeyRepairLeavesItErased) {
  service::TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 128;
  sopt.resize_on_scrub_violation = false;
  DyCuckooOptions topt;
  topt.initial_capacity = 8192;
  topt.auto_resize = false;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, sopt, &server).ok());
  Manager mgr{durability::DurabilityOptions{}};
  server->AttachDurability(&mgr);

  // Acknowledge insert + erase, then resurrect a corrupted ghost of the
  // key directly in the table (as a fault would): durable truth says
  // "erased", so the scrub's unpublish must stand and count as resolved.
  uint64_t w = server->Submit([&] {
    Server::Request req;
    req.ops.push_back(Server::Op{OpType::kInsert, 111, 1});
    req.ops.push_back(Server::Op{OpType::kErase, 111, 0});
    return req;
  }());
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(w, &resp));
  ASSERT_TRUE(resp.status.ok());
  ASSERT_TRUE(server->table()->Insert(111, 9).ok());
  ASSERT_TRUE(server->table()->CorruptSlotBitForTest(111, /*region=*/1));

  PumpFullScrubPasses(server.get(), 2);
  EXPECT_FALSE(server->table()->Find(111));
  auto stats = server->stats().Capture();
  EXPECT_EQ(stats.scrub_corruption_repaired, 1u);
  EXPECT_EQ(stats.scrub_corruption_unrepairable, 0u);
  EXPECT_FALSE(server->integrity_compromised());
}

TEST(IntegrityEscalation, UnrepairableCorruptionOpensBreakerAndLatches) {
  // No durability attached: nothing to repair from, so ANY detected
  // corruption is unrepairable — writes must stop immediately and the
  // sticky flag must latch for the supervisor.
  service::TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 128;
  sopt.resize_on_scrub_violation = false;
  DyCuckooOptions topt;
  topt.initial_capacity = 8192;
  topt.auto_resize = false;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, sopt, &server).ok());

  auto keys = testing::UniqueKeys(500, 23);
  uint64_t w =
      server->Submit(InsertReq(keys, testing::SequentialValues(keys.size())));
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(w, &resp));
  ASSERT_TRUE(resp.status.ok());

  ASSERT_TRUE(server->table()->CorruptSlotBitForTest(keys[0], /*region=*/1));
  PumpFullScrubPasses(server.get(), 2);

  EXPECT_TRUE(server->integrity_compromised());
  EXPECT_TRUE(server->read_only());
  auto stats = server->stats().Capture();
  EXPECT_EQ(stats.scrub_corruption_detected, 1u);
  EXPECT_EQ(stats.scrub_corruption_unrepairable, 1u);
  EXPECT_EQ(server->table()->stats().Capture().scrub_unrepairable, 1u);

  // Writes are rejected while the breaker cools down; reads still flow.
  uint64_t rejected = server->Submit(InsertReq(keys, keys));
  uint64_t read = server->Submit(FindReq(std::span(keys.data() + 1, 1)));
  server->RunUntilIdle();
  ASSERT_TRUE(server->TakeResponse(rejected, &resp));
  EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
  ASSERT_TRUE(server->TakeResponse(read, &resp));
  EXPECT_TRUE(resp.status.ok());
}

// --- The planted-flip chaos soak ------------------------------------------

struct SoakResult {
  uint64_t planted = 0;
  uint64_t detected = 0;
  uint64_t repaired = 0;
  uint64_t table_digest = 0;
  bool compromised = false;
};

uint64_t TableDigest(const Table& table) {
  auto pairs = table.Dump();
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 1469598103934665603ull;
  for (const auto& [k, v] : pairs) {
    uint64_t x = (static_cast<uint64_t>(k) << 32) | v;
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Serve -> plant value flips on acknowledged keys -> keep serving ->
/// one full scrub pass -> verify.  With `plant` false this is the clean
/// control run (zero-false-positive guarantee).
SoakResult RunPlantedFlipSoak(uint64_t seed, bool plant) {
  SoakResult result;
  service::TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 96;
  sopt.resize_on_scrub_violation = false;
  DyCuckooOptions topt;
  topt.initial_capacity = 16 * 1024;
  topt.auto_resize = false;
  std::unique_ptr<Server> server;
  Status st = Server::Create(topt, sopt, &server);
  if (!st.ok()) {
    ADD_FAILURE() << st.ToString();
    return result;
  }
  Manager mgr{durability::DurabilityOptions{}};
  server->AttachDurability(&mgr);

  SplitMix64 rng(seed);
  std::unordered_map<uint32_t, uint32_t> acked;
  std::vector<uint32_t> acked_order;
  std::unordered_set<uint32_t> planted;
  uint32_t next_key = 1;
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> ks, vs;
    for (int i = 0; i < 40; ++i) {
      ks.push_back(next_key++);
      vs.push_back(static_cast<uint32_t>(rng.Next()));
    }
    uint64_t id = server->Submit(InsertReq(ks, vs));
    server->RunUntilIdle();
    Server::Response resp;
    if (!server->TakeResponse(id, &resp) || !resp.status.ok()) {
      ADD_FAILURE() << "soak write failed (seed=" << seed << ")";
      return result;
    }
    for (size_t i = 0; i < ks.size(); ++i) {
      acked[ks[i]] = vs[i];
      acked_order.push_back(ks[i]);
    }
    // Between batches (host-maintenance slot, kernels quiesced): plant a
    // single-bit value flip on a random acknowledged key.
    if (plant && round % 2 == 1) {
      uint32_t victim = acked_order[rng.Next() % acked_order.size()];
      if (planted.insert(victim).second) {
        int bit = static_cast<int>(rng.Next() % 32);
        if (server->table()->CorruptSlotBitForTest(victim, /*region=*/1,
                                                   bit)) {
          ++result.planted;
        } else {
          planted.erase(victim);
        }
      }
    }
  }

  // Detection horizon: one complete scrub pass strictly after the last
  // plant — two pass boundaries from wherever the cursor is now.
  const uint64_t target = server->scrubber().full_passes() + 2;
  uint64_t guard = 0;
  while (server->scrubber().full_passes() < target) {
    server->Step();
    if (++guard > 200000u) {
      ADD_FAILURE() << "scrub pass stalled (seed=" << seed << ")";
      return result;
    }
  }

  auto stats = server->stats().Capture();
  result.detected = stats.scrub_corruption_detected;
  result.repaired = stats.scrub_corruption_repaired;
  result.compromised = server->integrity_compromised();
  result.table_digest = TableDigest(*server->table());

  // No acknowledged key may be served a corrupted value after repair.
  for (const auto& [k, v] : acked) {
    uint32_t got = 0;
    bool found = server->table()->Find(k, &got);
    if (!found || got != v) {
      ADD_FAILURE() << "key " << k << " served wrong/no value after repair "
                    << "(seed=" << seed << ", planted=" << planted.count(k)
                    << ", found=" << found << ", got=" << got
                    << ", want=" << v << ")\n"
                    << server->table()->stats().Capture().ToString();
      return result;
    }
  }
  return result;
}

TEST(IntegritySoak, EveryPlantedFlipDetectedAndRepairedWithinOnePass) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_integrity", seed));
  SoakResult r = RunPlantedFlipSoak(seed, /*plant=*/true);
  EXPECT_GT(r.planted, 0u);
  EXPECT_EQ(r.detected, r.planted)
      << "100% detection within one scrub pass violated (seed=" << seed
      << ")";
  EXPECT_EQ(r.repaired, r.planted);
  EXPECT_FALSE(r.compromised);
}

TEST(IntegritySoak, CleanRunReportsZeroCorruptedSlots) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_integrity", seed));
  SoakResult r = RunPlantedFlipSoak(seed, /*plant=*/false);
  EXPECT_EQ(r.planted, 0u);
  EXPECT_EQ(r.detected, 0u)
      << "false positive: clean soak reported corruption (seed=" << seed
      << ")";
}

TEST(IntegritySoak, SameSeedReplaysBitIdentically) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_integrity", seed));
  SoakResult a = RunPlantedFlipSoak(seed, /*plant=*/true);
  SoakResult b = RunPlantedFlipSoak(seed, /*plant=*/true);
  EXPECT_EQ(a.planted, b.planted);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.table_digest, b.table_digest);
}

// --- Sharded: memory-fault campaign, quarantine, heal ---------------------

TEST(IntegritySharded, MemoryFaultCampaignQuarantinesOnlyTheStruckShard) {
  const uint64_t seed = SeedFromEnv();
  const uint32_t n = ShardsFromEnv();
  const uint32_t target = static_cast<uint32_t>(seed % n);
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_integrity", seed) +
               " target=" + std::to_string(target));

  gpusim::DeviceArena arena{0};
  gpusim::Grid grid{1};
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  topt.initial_capacity = 16 * 1024;
  topt.auto_resize = false;
  Sharded::Options options;
  options.num_shards = n;
  options.shard.scrub_buckets_per_step = 64;
  options.durability.checkpoint_wal_bytes = 0;
  options.durability.checkpoint_wal_records = 64;
  options.supervisor.heal_backoff_ticks = 1 << 20;  // heal on request only
  std::unique_ptr<Sharded> srv;
  ASSERT_TRUE(Sharded::Create(topt, options, &srv).ok());

  // Acknowledge a spread of keys across every shard.
  SplitMix64 rng(seed);
  std::unordered_map<uint32_t, uint32_t> acked;
  for (int round = 0; round < 12; ++round) {
    Sharded::Request req;
    for (int i = 0; i < 64; ++i) {
      uint32_t k = static_cast<uint32_t>(rng.Next() % 100000) + 1;
      uint32_t v = static_cast<uint32_t>(rng.Next());
      req.ops.push_back(Sharded::Op{OpType::kInsert, k, v});
      acked[k] = v;
    }
    uint64_t id = srv->Submit(std::move(req));
    srv->RunUntilIdle();
    Sharded::Response resp;
    ASSERT_TRUE(srv->TakeResponse(id, &resp));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  // Memory-fault campaign scoped to ONE shard's kv arrays (keys, values
  // and tags; locks are outside the guarded region).  Key-region and
  // empty-slot hits are deliberately unattributable, so escalation to
  // quarantine is the expected end state.
  gpusim::FaultInjectorConfig cfg;
  cfg.seed = seed;
  cfg.mem_faults_per_sweep = 8;
  cfg.mem_tag_filter = durability::ShardScope(target) + topt.memory_tag +
                       "/kv";
  // The CI memory-fault lane (DYCUCKOO_MEMFAULTS=1) runs a heavier
  // campaign: several sweeps with serving in between, so repairs,
  // re-corruption, and escalation interleave the way a degrading DIMM
  // would present in production.
  const bool heavy = std::getenv("DYCUCKOO_MEMFAULTS") != nullptr;
  const int sweeps = heavy ? 4 : 1;
  uint64_t injected = 0;
  {
    gpusim::ScopedFaultInjection scoped(cfg);
    for (int c = 0; c < sweeps; ++c) {
      injected += arena.InjectMemoryFaults().faults_injected;
      for (int i = 0; i < 40 && srv->supervisor().serving(target); ++i) {
        srv->Step();
      }
    }
    EXPECT_GT(injected, 0u);

    // The sweep's flips land wherever the seed says — a flip on a live,
    // durably-logged value is repaired in place and never escalates.  To
    // make the quarantine outcome seed-independent, also plant one pair
    // the durable lineage has never heard of and corrupt it: the key is
    // attributable, but PointLookup answers kAbsent, so the shard must
    // degrade.  (Skipped if the sweep already forced the quarantine.)
    constexpr uint32_t kGhostKey = 0x7FFFFFFFu;  // outside the acked range
    if (srv->supervisor().serving(target)) {
      ASSERT_TRUE(
          srv->shard_server(target)->table()->Insert(kGhostKey, 1).ok());
      ASSERT_TRUE(srv->shard_server(target)->table()->CorruptSlotBitForTest(
          kGhostKey, /*region=*/1));
    }

    // Serve until the scrubber walks the struck shard and the supervisor
    // quarantines it.
    uint64_t guard = 0;
    while (srv->supervisor().serving(target)) {
      srv->Step();
      ASSERT_LT(++guard, 300000u) << "corruption never escalated";
    }
  }
  // Machine-readable quarantine cause: DataLoss + corruption detail.
  Status fault = srv->supervisor().fault(target);
  EXPECT_TRUE(fault.IsDataLoss()) << fault.ToString();
  ASSERT_NE(fault.FindDetail("corruption"), nullptr);
  EXPECT_EQ(*fault.FindDetail("corruption"), "unrepairable");
  ASSERT_NE(fault.FindDetail("shard"), nullptr);
  EXPECT_EQ(*fault.FindDetail("shard"), std::to_string(target));
  // Fault isolation: every other shard still serves.
  for (uint32_t s = 0; s < n; ++s) {
    if (s != target) {
      EXPECT_TRUE(srv->supervisor().serving(s)) << "shard " << s;
      EXPECT_FALSE(srv->shard_server(s)->integrity_compromised());
    }
  }

  // Heal: rebuild the struck shard from its durable lineage.
  srv->RequestHealNow(target);
  uint64_t guard = 0;
  while (!srv->supervisor().serving(target)) {
    srv->Step();
    ASSERT_LT(++guard, 300000u) << "heal never completed";
  }

  // Every acknowledged key everywhere — including the healed shard —
  // serves its acknowledged value: repair-from-durability is exact.
  for (const auto& [k, v] : acked) {
    uint32_t shard = srv->router().ShardOf(k);
    uint32_t got = 0;
    ASSERT_TRUE(srv->shard_server(shard)->table()->Find(k, &got))
        << "key " << k << " lost (shard " << shard << ")";
    ASSERT_EQ(got, v) << "key " << k << " corrupted after heal";
  }
}

// --- Stats digest (regression for the monitoring surface) -----------------

TEST(IntegrityStats, DigestIncludesCorruptionCounters) {
  TableStats stats;
  stats.scrub_corrupted_slots.store(3);
  stats.scrub_repaired_from_wal.store(2);
  stats.scrub_unrepairable.store(1);
  std::string digest = stats.Capture().ToString();
  EXPECT_NE(digest.find("scrub_corrupted_slots=3"), std::string::npos)
      << digest;
  EXPECT_NE(digest.find("scrub_repaired_from_wal=2"), std::string::npos);
  EXPECT_NE(digest.find("scrub_unrepairable=1"), std::string::npos);
}

TEST(IntegrityStats, SnapshotToStringIsPinned) {
  // The whole digest, byte for byte: every counter carries a distinct
  // value, so a dropped, renamed, reordered or mislabeled field shows.
  TableStats stats;
  stats.inserts_new.store(100);
  stats.inserts_updated.store(101);
  stats.insert_failures.store(102);
  stats.finds.store(103);
  stats.find_hits.store(104);
  stats.erases.store(105);
  stats.erase_hits.store(106);
  stats.evictions.store(107);
  stats.insert_reprobe_updates.store(108);
  stats.upsizes.store(109);
  stats.downsizes.store(110);
  stats.rehashed_kvs.store(111);
  stats.residual_kvs.store(112);
  stats.stash_inserts.store(113);
  stats.stash_drains.store(114);
  stats.parked_victims.store(115);
  stats.handoff_hits.store(116);
  stats.handoff_full_fallbacks.store(117);
  stats.handoff_deletes.store(118);
  stats.downsize_rollbacks.store(119);
  stats.degraded_batches.store(120);
  stats.resize_oom_skips.store(121);
  stats.recovery_spills.store(122);
  stats.scrub_buckets_scanned.store(123);
  stats.scrub_misplaced_found.store(124);
  stats.scrub_misplaced_repaired.store(125);
  stats.scrub_stash_fixes.store(126);
  stats.scrub_duplicates_collapsed.store(127);
  stats.scrub_passes.store(128);
  stats.scrub_corrupted_slots.store(129);
  stats.scrub_repaired_from_wal.store(130);
  stats.scrub_unrepairable.store(131);
  EXPECT_EQ(
      stats.Capture().ToString(),
      "inserts_new=100 inserts_updated=101 insert_failures=102 finds=103"
      " find_hits=104 erases=105 erase_hits=106 evictions=107"
      " insert_reprobe_updates=108 upsizes=109 downsizes=110"
      " rehashed_kvs=111 residual_kvs=112 stash_inserts=113"
      " stash_drains=114 parked_victims=115 handoff_hits=116"
      " handoff_full_fallbacks=117 handoff_deletes=118"
      " downsize_rollbacks=119 degraded_batches=120 resize_oom_skips=121"
      " recovery_spills=122 scrub_buckets_scanned=123"
      " scrub_misplaced_found=124 scrub_misplaced_repaired=125"
      " scrub_stash_fixes=126 scrub_duplicates_collapsed=127"
      " scrub_passes=128 scrub_corrupted_slots=129"
      " scrub_repaired_from_wal=130 scrub_unrepairable=131");
}

}  // namespace
}  // namespace dycuckoo
