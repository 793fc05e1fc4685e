// Configuration-matrix property test: the model-based differential test
// runs under every combination of the ablation switches (two-layer, voter,
// balance) and the stash, with auto-resizing active.  Whatever the
// configuration, the table must behave exactly like a map.

#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using testing::UniqueKeys;

// (two_layer, voter, balance, stash_capacity)
using Config = std::tuple<bool, bool, bool, uint64_t>;

class ConfigMatrixTest : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigMatrixTest, DifferentialChurn) {
  auto [two_layer, voter, balance, stash] = GetParam();
  DyCuckooOptions o;
  o.enable_two_layer = two_layer;
  o.enable_voter = voter;
  o.enable_balance = balance;
  o.stash_capacity = stash;
  o.initial_capacity = 1024;
  o.seed = 0x5eedULL + stash;
  std::unique_ptr<DyCuckooMap> t;
  ASSERT_TRUE(DyCuckooMap::Create(o, &t).ok());

  std::unordered_map<uint32_t, uint32_t> model;
  SplitMix64 rng(99);
  auto universe = UniqueKeys(5000, 1);

  for (int round = 0; round < 12; ++round) {
    std::vector<uint32_t> nk, nv, uk, uv, ek;
    std::vector<uint8_t> used(universe.size(), 0);
    for (int i = 0; i < 700; ++i) {
      uint64_t p = rng.NextBounded(universe.size());
      if (used[p]) continue;
      used[p] = 1;
      uint32_t k = universe[p];
      switch (rng.NextBounded(3)) {
        case 0:
        case 1: {
          uint32_t v = static_cast<uint32_t>(rng.Next());
          if (model.count(k)) {
            uk.push_back(k);
            uv.push_back(v);
          } else {
            nk.push_back(k);
            nv.push_back(v);
          }
          model[k] = v;
          break;
        }
        default:
          ek.push_back(k);
          model.erase(k);
          break;
      }
    }
    ASSERT_TRUE(t->BulkInsert(nk, nv).ok());
    ASSERT_TRUE(t->BulkInsert(uk, uv).ok());
    ASSERT_TRUE(t->BulkErase(ek).ok());
    ASSERT_EQ(t->size(), model.size())
        << "two_layer=" << two_layer << " voter=" << voter
        << " balance=" << balance << " stash=" << stash << " round "
        << round;
    ASSERT_TRUE(t->Validate().ok());
  }

  std::vector<uint32_t> out(universe.size());
  std::vector<uint8_t> found(universe.size());
  t->BulkFind(universe, out.data(), found.data());
  for (size_t i = 0; i < universe.size(); ++i) {
    auto it = model.find(universe[i]);
    ASSERT_EQ(found[i] != 0, it != model.end());
    if (found[i]) {
      ASSERT_EQ(out[i], it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSwitches, ConfigMatrixTest,
    ::testing::Combine(::testing::Bool(),          // two_layer
                       ::testing::Bool(),          // voter
                       ::testing::Bool(),          // balance
                       ::testing::Values(0ull, 64ull)));  // stash

}  // namespace
}  // namespace dycuckoo
