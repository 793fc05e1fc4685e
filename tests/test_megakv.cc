#include "baselines/megakv.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::ReferenceModel;
using testing::SequentialValues;
using testing::UniqueKeys;

std::unique_ptr<MegaKvTable> MakeTable(MegaKvOptions o = {}) {
  std::unique_ptr<MegaKvTable> t;
  Status st = MegaKvTable::Create(o, &t);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t;
}

TEST(MegaKvTest, OptionsValidation) {
  MegaKvOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.initial_capacity = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = MegaKvOptions{};
  o.lower_bound = 0.9;
  o.upper_bound = 0.8;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = MegaKvOptions{};
  o.max_eviction_chain = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(MegaKvTest, InsertFindRoundTrip) {
  auto t = MakeTable();
  auto keys = UniqueKeys(40000);
  auto values = SequentialValues(keys.size());
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  EXPECT_EQ(t->size(), keys.size());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], values[i]);
  }
}

TEST(MegaKvTest, UpsertOverwritesValue) {
  auto t = MakeTable();
  ASSERT_TRUE(t->BulkInsert(std::vector<uint32_t>{9},
                            std::vector<uint32_t>{1})
                  .ok());
  ASSERT_TRUE(t->BulkInsert(std::vector<uint32_t>{9},
                            std::vector<uint32_t>{2})
                  .ok());
  std::vector<uint32_t> out(1);
  std::vector<uint8_t> found(1);
  std::vector<uint32_t> probe = {9};
  t->BulkFind(probe, out.data(), found.data());
  EXPECT_TRUE(found[0]);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(t->size(), 1u);
}

TEST(MegaKvTest, EraseRemovesAndCounts) {
  auto t = MakeTable();
  auto keys = UniqueKeys(20000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  std::vector<uint32_t> victims(keys.begin(), keys.begin() + 5000);
  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(victims, &erased).ok());
  EXPECT_EQ(erased, victims.size());
  EXPECT_EQ(t->size(), keys.size() - victims.size());
  std::vector<uint8_t> found(victims.size());
  t->BulkFind(victims, nullptr, found.data());
  for (auto f : found) EXPECT_EQ(f, 0);
}

TEST(MegaKvTest, AutoResizeGrowsViaFullRehash) {
  MegaKvOptions o;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(100000);
  // Streamed in batches so growth rehashes a populated table (one giant
  // batch would pre-grow while still empty).
  for (size_t off = 0; off < keys.size(); off += 10000) {
    size_t len = std::min<size_t>(10000, keys.size() - off);
    std::vector<uint32_t> ks(keys.begin() + off, keys.begin() + off + len);
    ASSERT_TRUE(t->BulkInsert(ks, SequentialValues(len)).ok());
  }
  EXPECT_GT(t->full_rehash_count(), 2u)
      << "MegaKV's resize strategy is a full rehash";
  EXPECT_LE(t->filled_factor(), o.upper_bound + 1e-9);
  // Every rehash rewrites the whole current contents — orders of magnitude
  // more moved KVs than DyCuckoo's one-subtable policy ever touches for the
  // same growth (compare ResizeTest.RehashedKvAccountingMatchesResizeSizes).
  EXPECT_GT(t->rehashed_kvs(), t->size() / 2);
}

TEST(MegaKvTest, ShrinksWhenDrained) {
  MegaKvOptions o;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(80000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t grown = t->memory_bytes();
  ASSERT_TRUE(t->BulkErase(keys).ok());
  EXPECT_EQ(t->size(), 0u);
  EXPECT_LT(t->memory_bytes(), grown / 4);
}

TEST(MegaKvTest, StaticModeReportsFailures) {
  MegaKvOptions o;
  o.auto_resize = false;
  o.initial_capacity = 512;
  o.max_eviction_chain = 8;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(2000);
  uint64_t failed = 0;
  Status st = t->BulkInsert(keys, SequentialValues(keys.size()), &failed);
  EXPECT_TRUE(st.IsInsertionFailure());
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(t->capacity_slots(), 512u);
}

TEST(MegaKvTest, ReservedKeyRejected) {
  auto t = MakeTable();
  std::vector<uint32_t> keys = {0xffffffffu};
  std::vector<uint32_t> values = {1};
  EXPECT_TRUE(t->BulkInsert(keys, values).IsInvalidArgument());
}

TEST(MegaKvTest, ModelBasedChurn) {
  auto t = MakeTable();
  ReferenceModel model;
  SplitMix64 rng(55);
  auto universe = UniqueKeys(4000, 3);
  for (int round = 0; round < 15; ++round) {
    std::vector<uint32_t> ik, iv, ek;
    std::vector<uint8_t> used(universe.size(), 0);
    for (int i = 0; i < 600; ++i) {
      uint64_t p = rng.NextBounded(universe.size());
      if (used[p]) continue;
      used[p] = 1;
      uint32_t v = static_cast<uint32_t>(rng.Next());
      ik.push_back(universe[p]);
      iv.push_back(v);
      model.Insert(universe[p], v);
    }
    ASSERT_TRUE(t->BulkInsert(ik, iv).ok());
    std::fill(used.begin(), used.end(), 0);
    for (int i = 0; i < 300; ++i) {
      uint64_t p = rng.NextBounded(universe.size());
      if (used[p]) continue;
      used[p] = 1;
      ek.push_back(universe[p]);
      model.Erase(universe[p]);
    }
    ASSERT_TRUE(t->BulkErase(ek).ok());
    ASSERT_EQ(t->size(), model.size()) << "round " << round;
  }
  std::vector<uint32_t> out(universe.size());
  std::vector<uint8_t> found(universe.size());
  t->BulkFind(universe, out.data(), found.data());
  for (size_t i = 0; i < universe.size(); ++i) {
    uint32_t mv = 0;
    bool hit = model.Find(universe[i], &mv);
    ASSERT_EQ(found[i] != 0, hit);
    if (hit) {
      ASSERT_EQ(out[i], mv);
    }
  }
}

TEST(MegaKvTest, DumpMatchesSize) {
  auto t = MakeTable();
  auto keys = UniqueKeys(5000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_EQ(t->Dump().size(), t->size());
}

TEST(MegaKvTest, ShrinkFloorsAtMinimumCapacity) {
  MegaKvOptions o;
  o.initial_capacity = 64;
  auto t = MakeTable(o);
  // Insert and fully drain repeatedly; capacity must never underflow.
  for (int round = 0; round < 3; ++round) {
    auto keys = UniqueKeys(500, round + 1);
    ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
    ASSERT_TRUE(t->BulkErase(keys).ok());
    EXPECT_EQ(t->size(), 0u);
    EXPECT_GE(t->capacity_slots(), 2u * MegaKvTable::kSlotsPerBucket);
  }
}

TEST(MegaKvTest, RehashReseedsHashFunctions) {
  // After a grow-rehash, keys relocate (new seeds) but remain findable.
  MegaKvOptions o;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(800, 2);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  auto more = UniqueKeys(30000, 3);
  ASSERT_TRUE(t->BulkInsert(more, SequentialValues(more.size(), 50000)).ok());
  ASSERT_GT(t->full_rehash_count(), 0u);
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], i);
  }
}

TEST(MegaKvTest, FindWithNullOutputsIsSafe) {
  auto t = MakeTable();
  std::vector<uint32_t> keys = {1, 2, 3};
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(3)).ok());
  t->BulkFind(keys, nullptr, nullptr);  // must not crash
}

TEST(MegaKvTest, NameAndTraits) {
  auto t = MakeTable();
  EXPECT_EQ(t->name(), "MegaKV");
  EXPECT_TRUE(t->supports_erase());
  EXPECT_GT(t->memory_bytes(), 0u);
}

}  // namespace
}  // namespace dycuckoo
