// Tests for the two-layer scheme's headline guarantee (paper Section V-A):
// FIND and DELETE touch at most two buckets regardless of the number of
// subtables, and the layer-1 assignment is stable across resizes.  The
// bound is checked through both entry points of the batch kernel: the
// single-type Bulk* call and a one-type BulkExecute.

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

using testing::EntryPoint;
using testing::EraseVia;
using testing::FindVia;
using testing::SequentialValues;
using testing::UniqueKeys;

class TwoLayerProbeTest
    : public ::testing::TestWithParam<std::tuple<int, EntryPoint>> {};

TEST_P(TwoLayerProbeTest, FindReadsAtMostTwoBucketsPerLookup) {
  const auto [d, via] = GetParam();
  DyCuckooOptions o;
  o.num_subtables = d;
  // Single-threaded grid so global counters attribute cleanly.
  gpusim::Grid grid(1);
  o.grid = &grid;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());

  auto keys = UniqueKeys(20000, d);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  std::vector<uint8_t> found;
  auto before = gpusim::SimCounters::Get().Capture();
  ASSERT_TRUE(FindVia(via, t.get(), keys, &found).ok());
  auto delta = gpusim::SimCounters::Get().Capture() - before;

  EXPECT_LE(delta.bucket_reads, 2 * keys.size())
      << "two-layer bound violated at d=" << d;
  EXPECT_GE(delta.bucket_reads, keys.size());
}

TEST_P(TwoLayerProbeTest, MissedFindAlsoReadsExactlyTwoBuckets) {
  const auto [d, via] = GetParam();
  DyCuckooOptions o;
  o.num_subtables = d;
  gpusim::Grid grid(1);
  o.grid = &grid;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  ASSERT_TRUE(t->Insert(1, 1).ok());

  auto misses = UniqueKeys(5000, 1234);
  std::erase(misses, 1u);  // keep the probe set disjoint from the contents
  std::vector<uint8_t> found;
  auto before = gpusim::SimCounters::Get().Capture();
  ASSERT_TRUE(FindVia(via, t.get(), misses, &found).ok());
  auto delta = gpusim::SimCounters::Get().Capture() - before;
  // A miss must scan both candidate buckets; never more (this is where a
  // plain d-table cuckoo would pay d reads).
  EXPECT_EQ(delta.bucket_reads, 2 * misses.size());
}

TEST_P(TwoLayerProbeTest, EraseReadsAtMostTwoBucketsPerKey) {
  const auto [d, via] = GetParam();
  DyCuckooOptions o;
  o.num_subtables = d;
  o.auto_resize = false;  // keep the counters free of resize traffic
  gpusim::Grid grid(1);
  o.grid = &grid;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(10000, d + 100);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  auto before = gpusim::SimCounters::Get().Capture();
  uint64_t erased = 0;
  ASSERT_TRUE(EraseVia(via, t.get(), keys, &erased).ok());
  auto delta = gpusim::SimCounters::Get().Capture() - before;
  EXPECT_EQ(erased, keys.size());
  EXPECT_EQ(delta.bucket_reads, 2 * keys.size());
}

INSTANTIATE_TEST_SUITE_P(
    SubtableCounts, TwoLayerProbeTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8),
                       ::testing::Values(EntryPoint::kBulkOp,
                                         EntryPoint::kBulkExecute)));

TEST(TwoLayerTest, KeysRemainFindableAcrossResizeStorms) {
  // Layer-1 pair assignment must be stable while subtable sizes churn.
  DyCuckooOptions o;
  o.auto_resize = false;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(15000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());

  SplitMix64 rng(4);
  for (int i = 0; i < 12; ++i) {
    if (rng.NextBounded(2) == 0) {
      ASSERT_TRUE(t->Upsize().ok());
    } else {
      Status st = t->Downsize();
      ASSERT_TRUE(st.ok() || st.IsInvalidArgument());
    }
    ASSERT_TRUE(t->Validate().ok());
  }
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << "key index " << i;
    ASSERT_EQ(out[i], i);
  }
}

TEST(TwoLayerTest, EntriesSpreadAcrossAllSubtables) {
  // The two-layer design routes keys through C(d,2) pairs so every subtable
  // receives a share (the skew-mitigation argument of Section V-A).
  DyCuckooOptions o;
  o.num_subtables = 5;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(50000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  for (int i = 0; i < t->num_subtables(); ++i) {
    EXPECT_GT(t->subtable_size(i), keys.size() / 20)
        << "subtable " << i << " starved";
  }
}

TEST(TwoLayerTest, BalanceRoughlyFollowsTheoremOne) {
  // With equal subtable sizes the Theorem-1 weights equalize m_i; check the
  // spread is tight after a large uniform insert.
  DyCuckooOptions o;
  o.num_subtables = 4;
  o.auto_resize = false;
  o.initial_capacity = 256 * 1024;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());
  auto keys = UniqueKeys(120000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t lo = ~uint64_t{0}, hi = 0;
  for (int i = 0; i < 4; ++i) {
    lo = std::min(lo, t->subtable_size(i));
    hi = std::max(hi, t->subtable_size(i));
  }
  EXPECT_LT(static_cast<double>(hi - lo) / keys.size(), 0.05)
      << "subtable occupancy spread too wide: " << lo << ".." << hi;
}

}  // namespace
}  // namespace dycuckoo
