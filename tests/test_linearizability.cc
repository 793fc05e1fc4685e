// History-based linearizability checker for concurrent INSERT/FIND/DELETE.
//
// Each BulkExecute batch is one concurrency window: every op in it is
// concurrent with every other (invocation at the batch's start tick,
// response at its end tick, measured on the VirtualClock), while
// consecutive batches are strictly ordered.  A per-key shadow state tracks
// the SET of values the key may hold after each window — every
// linearization of a window ends with one of the window's writes on that
// key, or with the prior state when the window wrote nothing.  A FIND is
// justified by some linearization iff:
//
//   * hit v: v is a possible pre-window value, or the value of an INSERT
//     of the key running concurrently in the window;
//   * miss: the key was possibly absent before the window, or a DELETE of
//     it ran concurrently in the window.
//
// The hard case is the tentpole guarantee (docs/robustness.md
// "Consistency guarantees"): a key that was DEFINITELY resident before the
// window, with no DELETE of it inside, MUST be found — no matter how many
// concurrent eviction chains are displacing pairs around it.  Every
// inserted value is globally unique across the run, so a hit is traceable
// to the exact INSERT that produced it and cross-key value corruption is
// detected as an unjustifiable hit.
//
// The suite runs the checker twice:
//  * normal mode (8 seeds; also under ASan/TSan/DYCUCKOO_RACECHECK=1 in
//    CI): zero violations allowed, and the handoff machinery must have
//    been exercised (parked victims > 0);
//  * regression mode: the unsafe_overwrite_before_park_for_test hook
//    restores the pre-fix eviction (overwrite the victim's slot while the
//    displaced pair has no other visible home) and the checker must
//    report a non-linearizable history — proving it detects the very bug
//    the handoff ring closes.
//
// Reproducing a CI failure: every violation message prints the seed; rerun
// locally with DYCUCKOO_CHAOS_SEED=<seed> (decimal or 0x-hex).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "dycuckoo/dycuckoo.h"
#include "gpusim/virtual_clock.h"
#include "test_util.h"

namespace dycuckoo {
namespace {

using Op = DyCuckooMap::MixedOp;

/// Possible states of one key at a window boundary.
struct ShadowState {
  bool maybe_absent = true;
  std::unordered_set<uint32_t> values;
};

/// One window's writes on one key.
struct WindowWrites {
  std::vector<uint32_t> inserted;
  bool erased = false;
};

class HistoryChecker {
 public:
  explicit HistoryChecker(uint64_t seed) : seed_(seed) {}

  /// Checks every FIND of the window against the pre-window shadow plus
  /// the window's concurrent writes, then advances the shadow.
  /// `applied` is false when the batch reported insertion failures, in
  /// which case inserts may or may not have taken effect and the shadow
  /// keeps the pre-window states as possibilities.
  void Observe(const std::vector<Op>& ops, bool applied, uint64_t invoked_at,
               uint64_t responded_at) {
    std::unordered_map<uint32_t, WindowWrites> writes;
    for (const Op& op : ops) {
      if (op.type == Op::Type::kInsert) {
        writes[op.key].inserted.push_back(op.value);
      } else if (op.type == Op::Type::kErase) {
        writes[op.key].erased = true;
      }
    }

    for (const Op& op : ops) {
      if (op.type != Op::Type::kFind) continue;
      const ShadowState& pre = StateOf(op.key);
      auto w = writes.find(op.key);
      const bool concurrent_erase = w != writes.end() && w->second.erased;
      if (op.hit != 0) {
        bool justified = pre.values.count(op.value) != 0;
        if (!justified && w != writes.end()) {
          justified = std::find(w->second.inserted.begin(),
                                w->second.inserted.end(),
                                op.value) != w->second.inserted.end();
        }
        if (!justified) {
          Violation("FIND(" + std::to_string(op.key) + ") returned value " +
                        std::to_string(op.value) +
                        " that no linearization justifies",
                    invoked_at, responded_at);
        }
      } else {
        // A miss is justified only by possible pre-window absence or a
        // concurrent DELETE.  Concurrent INSERTs (upserts included) never
        // un-link a key, and neither may the eviction chains they spawn.
        if (!pre.maybe_absent && !concurrent_erase) {
          Violation("FIND(" + std::to_string(op.key) +
                        ") missed a key resident since before the window "
                        "with no concurrent DELETE",
                    invoked_at, responded_at);
        }
      }
    }

    for (auto& [key, w] : writes) {
      ShadowState& st = shadow_[key];
      if (applied) {
        // Some write of the window linearizes last: the post state is one
        // of the inserted values, or absent when a DELETE may be last.
        if (!w.inserted.empty()) {
          st.values.clear();
          st.values.insert(w.inserted.begin(), w.inserted.end());
          st.maybe_absent = w.erased;
        } else {
          st.values.clear();
          st.maybe_absent = true;
        }
      } else {
        // Inserts may have failed: prior possibilities survive.
        st.values.insert(w.inserted.begin(), w.inserted.end());
        st.maybe_absent = st.maybe_absent || w.erased;
      }
    }
  }

  const std::vector<std::string>& violations() const { return violations_; }

  bool DefinitelyResident(uint32_t key) const {
    auto it = shadow_.find(key);
    return it != shadow_.end() && !it->second.maybe_absent;
  }

 private:
  const ShadowState& StateOf(uint32_t key) const {
    static const ShadowState kAbsent;
    auto it = shadow_.find(key);
    return it == shadow_.end() ? kAbsent : it->second;
  }

  void Violation(const std::string& what, uint64_t invoked_at,
                 uint64_t responded_at) {
    violations_.push_back(
        what + " [window ticks " + std::to_string(invoked_at) + ".." +
        std::to_string(responded_at) + "; " +
        testing::ChaosReproLine("tests/test_linearizability", seed_) + "]");
  }

  uint64_t seed_;
  std::unordered_map<uint32_t, ShadowState> shadow_;
  std::vector<std::string> violations_;
};

struct RunConfig {
  bool unsafe_overwrite = false;  // regression mode: pre-fix eviction
  bool with_erases = true;
  int rounds = 20;
  int batch_ops = 1200;
  int warmup_inserts = 1500;
  uint64_t universe_size = 8000;
};

/// Drives `rounds` mixed batches against one table and returns the
/// checker with the recorded history verdicts.
HistoryChecker RunHistory(uint64_t seed, const RunConfig& cfg,
                          TableStats::Snapshot* stats_out) {
  DyCuckooOptions o;
  o.seed = seed;
  o.stash_capacity = 64;
  if (cfg.unsafe_overwrite) {
    // Static mode at a filled factor where buckets are routinely full, so
    // eviction chains run constantly, with the displacement window
    // re-opened and widened.
    o.auto_resize = false;
    o.initial_capacity = 4096;
    o.max_eviction_chain = 8;
    o.unsafe_overwrite_before_park_for_test = true;
    o.eviction_delay_spins_for_test = 40;
  } else {
    o.initial_capacity = 2048;  // auto-resizes mid-history
  }
  std::unique_ptr<DyCuckooMap> t;
  EXPECT_TRUE(DyCuckooMap::Create(o, &t).ok());

  gpusim::VirtualClock clock;
  gpusim::ScopedVirtualClock scoped(&clock);

  HistoryChecker checker(seed);
  SplitMix64 rng(seed ^ 0x11AB1E);
  auto universe = testing::UniqueKeys(cfg.universe_size, seed + 3);
  uint32_t next_value = 1;  // globally unique insert values

  // Seed population so early windows already have resident keys to probe.
  {
    std::vector<Op> warmup;
    for (int i = 0; i < cfg.warmup_inserts; ++i) {
      Op op;
      op.type = Op::Type::kInsert;
      op.key = universe[i];
      op.value = next_value++;
      warmup.push_back(op);
    }
    uint64_t t0 = clock.Now();
    Status st = t->BulkExecute(warmup);
    EXPECT_TRUE(st.ok() || st.IsInsertionFailure()) << st.ToString();
    checker.Observe(warmup, st.ok(), t0, clock.Now());
  }

  for (int round = 0; round < cfg.rounds; ++round) {
    std::vector<Op> ops;
    ops.reserve(cfg.batch_ops);
    for (int i = 0; i < cfg.batch_ops; ++i) {
      uint32_t k = universe[rng.NextBounded(universe.size())];
      Op op;
      uint64_t kind = rng.NextBounded(10);
      if (kind < 4) {
        op.type = Op::Type::kInsert;
        op.key = k;
        op.value = next_value++;
      } else if (kind < 9 || !cfg.with_erases) {
        // FINDs dominate and prefer definitely-resident keys so the hard
        // membership invariant is exercised, not just the lenient cases.
        op.type = Op::Type::kFind;
        if (!checker.DefinitelyResident(k)) {
          for (int probe = 0; probe < 8; ++probe) {
            uint32_t cand = universe[rng.NextBounded(universe.size())];
            if (checker.DefinitelyResident(cand)) {
              k = cand;
              break;
            }
          }
        }
        op.key = k;
      } else {
        op.type = Op::Type::kErase;
        op.key = k;
      }
      ops.push_back(op);
    }
    uint64_t t0 = clock.Now();
    Status st = t->BulkExecute(ops);
    EXPECT_TRUE(st.ok() || st.IsInsertionFailure()) << st.ToString();
    checker.Observe(ops, st.ok(), t0, clock.Now());
    if (!cfg.unsafe_overwrite) {
      // The unsafe regression hook also disables the duplicate guard (the
      // displacement epoch never advances), so structural validation only
      // holds in safe mode.
      Status valid = t->Validate();
      EXPECT_TRUE(valid.ok()) << "seed " << seed << " round " << round
                              << ": " << valid.ToString();
    }
  }

  if (stats_out != nullptr) *stats_out = t->stats().Capture();
  return checker;
}

class LinearizabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinearizabilityTest, ConcurrentHistoriesAreLinearizable) {
  const uint64_t seed = testing::ChaosSeedFromEnv(GetParam());
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_linearizability", seed));
  RunConfig cfg;
  TableStats::Snapshot stats;
  HistoryChecker checker = RunHistory(seed, cfg, &stats);
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
  // The run must actually exercise the displacement handoff, otherwise
  // this proves nothing about the eviction window.
  EXPECT_GT(stats.evictions, 0u) << "seed " << seed;
  EXPECT_GT(stats.parked_victims, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizabilityTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 0xD15Cull));

TEST(LinearizabilityRegressionTest, OverwriteBeforeParkIsDetected) {
  // With the pre-fix eviction restored (overwrite before park) the checker
  // must flag the history: displaced keys transiently vanish and a FIND
  // racing the chain misses a resident key.  This proves the checker can
  // see the bug the handoff ring closes.
  const uint64_t base = testing::ChaosSeedFromEnv(97);
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_linearizability", base));
  RunConfig cfg;
  cfg.unsafe_overwrite = true;
  cfg.with_erases = false;  // every miss of a resident key is a violation
  cfg.rounds = 12;
  cfg.batch_ops = 1000;
  cfg.warmup_inserts = 2800;  // ~0.7 filled: full buckets are routine
  cfg.universe_size = 3400;
  uint64_t violations = 0;
  for (uint64_t attempt = 0; attempt < 6 && violations == 0; ++attempt) {
    HistoryChecker checker = RunHistory(base + attempt * 1000, cfg, nullptr);
    violations += checker.violations().size();
  }
  EXPECT_GT(violations, 0u)
      << "the pre-fix displacement window produced a clean history; the "
         "checker (or the unsafe test hook) has lost its teeth";
}

}  // namespace
}  // namespace dycuckoo
