// Tests for the single-subtable resizing policy (paper Section IV-B/D).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::SequentialValues;
using testing::UniqueKeys;

std::unique_ptr<DyCuckooMap> MakeTable(DyCuckooOptions options = {}) {
  std::unique_ptr<DyCuckooMap> table;
  Status st = DyCuckooMap::Create(options, &table);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return table;
}

uint64_t MinBuckets(const DyCuckooMap& t) {
  uint64_t m = ~uint64_t{0};
  for (int i = 0; i < t.num_subtables(); ++i) {
    m = std::min(m, t.subtable_buckets(i));
  }
  return m;
}

uint64_t MaxBuckets(const DyCuckooMap& t) {
  uint64_t m = 0;
  for (int i = 0; i < t.num_subtables(); ++i) {
    m = std::max(m, t.subtable_buckets(i));
  }
  return m;
}

TEST(ResizeTest, UpsizeDoublesExactlyTheSmallestSubtable) {
  auto t = MakeTable();
  std::vector<uint64_t> before;
  for (int i = 0; i < t->num_subtables(); ++i) {
    before.push_back(t->subtable_buckets(i));
  }
  ASSERT_TRUE(t->Upsize().ok());
  int doubled = 0;
  for (int i = 0; i < t->num_subtables(); ++i) {
    if (t->subtable_buckets(i) == before[i] * 2) {
      ++doubled;
    } else {
      EXPECT_EQ(t->subtable_buckets(i), before[i]);
    }
  }
  EXPECT_EQ(doubled, 1);
  EXPECT_EQ(t->stats().upsizes.load(), 1u);
}

TEST(ResizeTest, UpsizePreservesEveryEntry) {
  auto t = MakeTable();
  auto keys = UniqueKeys(20000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t size_before = t->size();
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(t->Upsize().ok());
    ASSERT_EQ(t->size(), size_before);
    ASSERT_TRUE(t->Validate().ok()) << "round " << round;
  }
  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]);
    ASSERT_EQ(out[i], i);
  }
}

TEST(ResizeTest, DownsizeHalvesExactlyTheLargestSubtable) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Upsize().ok());  // make sizes uneven: one 2n, rest n
  uint64_t max_before = MaxBuckets(*t);
  ASSERT_TRUE(t->Downsize().ok());
  EXPECT_EQ(MaxBuckets(*t), max_before / 2);
  EXPECT_EQ(t->stats().downsizes.load(), 1u);
}

TEST(ResizeTest, DownsizePreservesEntriesIncludingResiduals) {
  // Fill one pattern, then force downsizing while subtables are > 50%
  // full so the merge overflows and residuals must be reinserted.
  DyCuckooOptions o;
  o.auto_resize = false;
  o.initial_capacity = 64 * 1024;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(40000);  // ~61% of capacity
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  ASSERT_GT(t->filled_factor(), 0.55);

  ASSERT_TRUE(t->Downsize().ok());
  EXPECT_GT(t->stats().residual_kvs.load(), 0u)
      << "downsizing a >50%-full subtable must produce residuals";
  EXPECT_EQ(t->size(), keys.size());
  EXPECT_TRUE(t->Validate().ok());

  std::vector<uint32_t> out(keys.size());
  std::vector<uint8_t> found(keys.size());
  t->BulkFind(keys, out.data(), found.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(found[i]) << "key lost in downsize at " << i;
    ASSERT_EQ(out[i], i);
  }
}

TEST(ResizeTest, LadderInvariantUnderManyResizes) {
  auto t = MakeTable();
  SplitMix64 rng(9);
  for (int i = 0; i < 60; ++i) {
    if (rng.NextBounded(2) == 0) {
      ASSERT_TRUE(t->Upsize().ok());
    } else if (MaxBuckets(*t) > 1) {
      ASSERT_TRUE(t->Downsize().ok());
    }
    ASSERT_LE(MaxBuckets(*t), 2 * MinBuckets(*t))
        << "paper invariant: no subtable more than twice any other";
  }
}

TEST(ResizeTest, AutoUpsizeKeepsThetaAtMostBeta) {
  DyCuckooOptions o;
  o.initial_capacity = 2048;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(100000);
  // Insert in many small batches; after each, theta must respect beta.
  for (size_t off = 0; off < keys.size(); off += 5000) {
    size_t len = std::min<size_t>(5000, keys.size() - off);
    std::vector<uint32_t> ks(keys.begin() + off, keys.begin() + off + len);
    ASSERT_TRUE(t->BulkInsert(ks, SequentialValues(len)).ok());
    ASSERT_LE(t->filled_factor(), o.upper_bound + 1e-9)
        << "after batch at offset " << off;
  }
  EXPECT_GT(t->stats().upsizes.load(), 0u);
}

TEST(ResizeTest, AutoDownsizeKeepsThetaAtLeastAlphaWhileDraining) {
  DyCuckooOptions o;
  o.initial_capacity = 2048;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(100000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  for (size_t off = 0; off < keys.size(); off += 5000) {
    size_t len = std::min<size_t>(5000, keys.size() - off);
    std::vector<uint32_t> ks(keys.begin() + off, keys.begin() + off + len);
    ASSERT_TRUE(t->BulkErase(ks).ok());
    // The lower bound holds unless the table has hit its minimum footprint
    // (one bucket per subtable), below which it cannot shrink further.
    if (t->size() > 0 && t->capacity_slots() > 4u * 2 * 32) {
      ASSERT_GE(t->filled_factor(), o.lower_bound - 1e-9)
          << "after erase batch at offset " << off << " size " << t->size();
    }
    ASSERT_TRUE(t->Validate().ok());
  }
  EXPECT_GT(t->stats().downsizes.load(), 0u);
}

TEST(ResizeTest, UpsizeLowersThetaByThePredictedFactor) {
  // Paper Section IV-B: with d' doubled tables out of d, one upsize takes
  // theta to theta*(d+d')/(d+d'+1).
  DyCuckooOptions o;
  o.auto_resize = false;
  o.initial_capacity = 32 * 1024;
  o.num_subtables = 4;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(26000);  // ~79%
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  double theta = t->filled_factor();
  ASSERT_TRUE(t->Upsize().ok());  // d=4, d'=0: expect theta * 4/5
  EXPECT_NEAR(t->filled_factor(), theta * 4.0 / 5.0, 1e-9);
  theta = t->filled_factor();
  ASSERT_TRUE(t->Upsize().ok());  // d'=1: expect theta * 5/6
  EXPECT_NEAR(t->filled_factor(), theta * 5.0 / 6.0, 1e-9);
}

TEST(ResizeTest, ManualDownsizeAtMinimumRejected) {
  DyCuckooOptions o;
  o.initial_capacity = 1;  // one bucket per subtable
  o.auto_resize = false;
  auto t = MakeTable(o);
  EXPECT_TRUE(t->Downsize().IsInvalidArgument());
}

TEST(ResizeTest, DrainToEmptyShrinksToMinimumFootprint) {
  DyCuckooOptions o;
  o.initial_capacity = 4096;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(60000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t peak_memory = t->memory_bytes();
  ASSERT_TRUE(t->BulkErase(keys).ok());
  EXPECT_EQ(t->size(), 0u);
  EXPECT_LT(t->memory_bytes(), peak_memory / 8)
      << "empty table must shed the bulk of its memory";
  EXPECT_TRUE(t->Validate().ok());

  // And it still works afterwards.
  ASSERT_TRUE(t->Insert(5, 6).ok());
  uint32_t v = 0;
  EXPECT_TRUE(t->Find(5, &v));
  EXPECT_EQ(v, 6u);
}

TEST(ResizeTest, RehashedKvAccountingMatchesResizeSizes) {
  DyCuckooOptions o;
  o.auto_resize = false;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(30000);
  ASSERT_TRUE(t->BulkInsert(keys, SequentialValues(keys.size())).ok());
  uint64_t before = t->stats().rehashed_kvs.load();
  ASSERT_TRUE(t->Upsize().ok());
  uint64_t delta = t->stats().rehashed_kvs.load() - before;
  // One subtable was rehashed: its occupancy is about size/d (never all m).
  EXPECT_GT(delta, 0u);
  EXPECT_LT(delta, t->size());
}

class ResizeBoundsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ResizeBoundsTest, ThetaStaysWithinConfiguredBand) {
  auto [alpha, beta] = GetParam();
  DyCuckooOptions o;
  o.lower_bound = alpha;
  o.upper_bound = beta;
  o.initial_capacity = 2048;
  auto t = MakeTable(o);
  auto keys = UniqueKeys(50000);
  SplitMix64 rng(31);
  size_t cursor = 0;
  std::vector<uint32_t> live;
  for (int round = 0; round < 20; ++round) {
    size_t n = 1000 + rng.NextBounded(3000);
    std::vector<uint32_t> batch;
    while (batch.size() < n && cursor < keys.size()) {
      batch.push_back(keys[cursor++]);
    }
    if (!batch.empty()) {
      ASSERT_TRUE(t->BulkInsert(batch, SequentialValues(batch.size())).ok());
      live.insert(live.end(), batch.begin(), batch.end());
    }
    size_t del = rng.NextBounded(live.size() / 2 + 1);
    std::vector<uint32_t> dels(live.end() - del, live.end());
    live.resize(live.size() - del);
    if (!dels.empty()) {
      ASSERT_TRUE(t->BulkErase(dels).ok());
    }

    if (t->size() > 0) {
      EXPECT_LE(t->filled_factor(), beta + 1e-9) << "round " << round;
      if (t->capacity_slots() > 4u * 2 * 32) {
        EXPECT_GE(t->filled_factor(), alpha - 1e-9) << "round " << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bands, ResizeBoundsTest,
    ::testing::Values(std::make_pair(0.20, 0.70), std::make_pair(0.30, 0.85),
                      std::make_pair(0.40, 0.90), std::make_pair(0.25, 0.75)));

}  // namespace
}  // namespace dycuckoo
