// Tests for the ablation switches (plain d-table mode, spinning leader,
// unbalanced placement) and the mixed-operation batch API.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "gpusim/grid.h"
#include "gpusim/sim_counters.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

std::unique_ptr<DyCuckooMap> MakeTable(DyCuckooOptions o) {
  std::unique_ptr<DyCuckooMap> t;
  Status st = DyCuckooMap::Create(o, &t);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t;
}

void RoundTrip(DyCuckooMap* t, uint64_t n, uint64_t seed) {
  auto keys = UniqueKeys(n, seed);
  auto values = SequentialValues(keys.size());
  ASSERT_TRUE(t->BulkInsert(keys, values).ok());
  ASSERT_EQ(t->size(), keys.size());
  ASSERT_TRUE(t->Validate().ok());
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << i;
    ASSERT_EQ(out[i], values[i]);
  }
  uint64_t erased = 0;
  ASSERT_TRUE(t->BulkErase(keys, &erased).ok());
  ASSERT_EQ(erased, keys.size());
  ASSERT_EQ(t->size(), 0u);
}

class PlainModeTest : public ::testing::TestWithParam<int> {};

class PlainModeProbeTest
    : public ::testing::TestWithParam<std::tuple<int, testing::EntryPoint>> {
};

TEST_P(PlainModeTest, PlainCuckooRoundTripAcrossD) {
  DyCuckooOptions o;
  o.num_subtables = GetParam();
  o.enable_two_layer = false;
  auto t = MakeTable(o);
  RoundTrip(t.get(), 20000, GetParam());
}

TEST_P(PlainModeProbeTest, PlainModeMissesCostDProbes) {
  // The motivation for the two-layer scheme: a plain d-table cuckoo pays d
  // bucket reads per unsuccessful lookup, through either entry point.
  const auto [d, via] = GetParam();
  DyCuckooOptions o;
  o.num_subtables = d;
  o.enable_two_layer = false;
  gpusim::Grid grid(1);
  o.grid = &grid;
  auto t = MakeTable(o);
  ASSERT_TRUE(t->Insert(1, 1).ok());

  auto misses = UniqueKeys(3000, 97);
  std::erase(misses, 1u);
  std::vector<uint8_t> found;
  auto before = gpusim::SimCounters::Get().Capture();
  ASSERT_TRUE(testing::FindVia(via, t.get(), misses, &found).ok());
  auto delta = gpusim::SimCounters::Get().Capture() - before;
  EXPECT_EQ(delta.bucket_reads, static_cast<uint64_t>(d) * misses.size());
}

INSTANTIATE_TEST_SUITE_P(Dims, PlainModeTest, ::testing::Values(2, 3, 4, 6));
INSTANTIATE_TEST_SUITE_P(
    Dims, PlainModeProbeTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(testing::EntryPoint::kBulkOp,
                                         testing::EntryPoint::kBulkExecute)));

TEST(PlainModeTest, ResizeStillWorks) {
  DyCuckooOptions o;
  o.enable_two_layer = false;
  o.initial_capacity = 1024;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(50000, 5);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_LE(t->filled_factor(), o.upper_bound + 1e-9);
  ASSERT_TRUE(t->BulkErase(keys).ok());
  EXPECT_EQ(t->size(), 0u);
  EXPECT_TRUE(t->Validate().ok());
}

TEST(SpinningLeaderTest, CorrectWithoutVoter) {
  DyCuckooOptions o;
  o.enable_voter = false;
  auto t = MakeTable(o);
  RoundTrip(t.get(), 30000, 11);
}

TEST(SpinningLeaderTest, ContendedInsertsStillCorrect) {
  // Tiny table => heavy bucket contention; the spinning leader must still
  // complete every op.
  DyCuckooOptions o;
  o.enable_voter = false;
  o.initial_capacity = 256;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(20000, 13);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  EXPECT_EQ(t->size(), keys.size());
  EXPECT_TRUE(t->Validate().ok());
}

TEST(UnbalancedTest, CorrectWithoutBalanceGuidance) {
  DyCuckooOptions o;
  o.enable_balance = false;
  auto t = MakeTable(o);
  RoundTrip(t.get(), 30000, 17);
}

TEST(UnbalancedTest, BalanceTightensSubtableSpread) {
  // With balance on, subtable occupancies track each other; without it the
  // spread is at least as wide (usually wider after resizes skew sizes).
  auto spread = [](bool balance) {
    DyCuckooOptions o;
    o.enable_balance = balance;
    o.auto_resize = false;
    o.initial_capacity = 160 * 1024;  // ladder: mixed subtable sizes
    std::unique_ptr<DyCuckooMap> t;
    (void)DyCuckooMap::Create(o, &t);
    auto keys = UniqueKeys(100000, 23);
    (void)t->BulkInsert(keys, SequentialValues(keys.size()));
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < t->num_subtables(); ++i) {
      lo = std::min(lo, t->subtable_filled_factor(i));
      hi = std::max(hi, t->subtable_filled_factor(i));
    }
    return hi - lo;
  };
  EXPECT_LE(spread(true), spread(false) + 0.02);
}

TEST(MixedBatchTest, AllThreeTypesInOneLaunch) {
  DyCuckooOptions o;
  auto t = MakeTable(o);
  // Seed with resident keys for the find/erase halves.
  auto resident = UniqueKeys(3000, 31);
  ASSERT_TRUE(t->BulkInsert(resident, SequentialValues(resident.size())).ok());

  auto fresh = UniqueKeys(3000, 32);
  std::vector<DyCuckooMap::MixedOp> ops;
  using Op = DyCuckooMap::MixedOp;
  for (size_t i = 0; i < 1000; ++i) {
    Op ins;
    ins.type = Op::Type::kInsert;
    ins.key = fresh[i];
    ins.value = 7000 + static_cast<uint32_t>(i);
    ops.push_back(ins);
    Op fnd;
    fnd.type = Op::Type::kFind;
    fnd.key = resident[i];
    ops.push_back(fnd);
    Op ers;
    ers.type = Op::Type::kErase;
    ers.key = resident[1000 + i];
    ops.push_back(ers);
  }
  ASSERT_TRUE(t->BulkExecute(ops).ok());

  // Finds of pre-batch residents must hit with the right value.
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type == Op::Type::kFind) {
      ASSERT_TRUE(ops[i].hit) << i;
      uint32_t idx = 0;
      for (size_t j = 0; j < resident.size(); ++j) {
        if (resident[j] == ops[i].key) idx = static_cast<uint32_t>(j);
      }
      ASSERT_EQ(ops[i].value, idx);
    } else if (ops[i].type == Op::Type::kErase) {
      ASSERT_TRUE(ops[i].hit) << i;  // pre-batch residents always erasable
    }
  }
  // Post-state: inserts landed, erased gone.
  std::vector<uint8_t> found(1000);
  std::vector<uint32_t> first_fresh(fresh.begin(), fresh.begin() + 1000);
  t->BulkFind(first_fresh, nullptr, found.data());
  for (auto f : found) ASSERT_TRUE(f);
  std::vector<uint32_t> erased_keys(resident.begin() + 1000,
                                    resident.begin() + 2000);
  t->BulkFind(erased_keys, nullptr, found.data());
  for (auto f : found) ASSERT_FALSE(f);
  EXPECT_EQ(t->size(), 3000u);  // 3000 - 1000 erased + 1000 inserted
  EXPECT_TRUE(t->Validate().ok());
}

TEST(MixedBatchTest, EmptyBatchIsNoop) {
  auto t = MakeTable(DyCuckooOptions{});
  std::vector<DyCuckooMap::MixedOp> ops;
  EXPECT_TRUE(t->BulkExecute(ops).ok());
}

TEST(MixedBatchTest, MixedInsertsTriggerResize) {
  DyCuckooOptions o;
  o.initial_capacity = 512;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(20000, 41);
  std::vector<DyCuckooMap::MixedOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].type = DyCuckooMap::MixedOp::Type::kInsert;
    ops[i].key = keys[i];
    ops[i].value = static_cast<uint32_t>(i);
  }
  ASSERT_TRUE(t->BulkExecute(ops).ok());
  EXPECT_EQ(t->size(), keys.size());
  EXPECT_LE(t->filled_factor(), o.upper_bound + 1e-9);
  EXPECT_GT(t->stats().upsizes.load(), 0u);
  EXPECT_TRUE(t->Validate().ok());
}

TEST(MixedBatchTest, ReservedKeyInsertRejected) {
  auto t = MakeTable(DyCuckooOptions{});
  std::vector<DyCuckooMap::MixedOp> ops(1);
  ops[0].type = DyCuckooMap::MixedOp::Type::kInsert;
  ops[0].key = 0xffffffffu;
  EXPECT_TRUE(t->BulkExecute(ops).IsInvalidArgument());
}

}  // namespace
}  // namespace dycuckoo
