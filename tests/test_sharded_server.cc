// Fault-isolated shards: chaos acceptance for the sharded server.
//
// A shard-targeted kill point crashes exactly one shard's durability
// fault domain while a shadow ledger tracks every acknowledged write.
// The acceptance invariants (ROADMAP / ISSUE):
//   - no acknowledged write is ever lost;
//   - shards outside the fault domain keep serving FIND/INSERT/DELETE
//     with ZERO kUnavailable for the quarantine's whole duration;
//   - the faulted shard is quarantined automatically and self-heals
//     online (recovery from its own checkpoint + WAL, scrub, re-admission
//     through the breaker's half-open probe);
//   - the whole sequence is bit-identical under the same
//     DYCUCKOO_CHAOS_SEED.
//
// Shard count is DYCUCKOO_SHARDS (default 4) so CI can sweep 1/4/16.
// Set DYCUCKOO_CHAOS_ARTIFACT_DIR to dump per-shard RecoveryReports.

#include "service/sharded_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "durability/log_format.h"
#include "durability/sharded.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "service/shard_router.h"
#include "service/shard_supervisor.h"
#include "test_util.h"

namespace dycuckoo {
namespace service {
namespace {

using Sharded = ShardedTableServer<uint32_t, uint32_t>;
using OpType = Sharded::OpType;

constexpr int kSoakRounds = 30;
constexpr int kQuarantineRounds = 8;
constexpr int kResumeRounds = 10;
constexpr int kOpsPerRequest = 12;
constexpr uint32_t kKeySpace = 4096;
constexpr uint32_t kNoFaultShard = 0xffffffffu;

uint32_t NumShardsFromEnv() {
  const char* env = std::getenv("DYCUCKOO_SHARDS");
  if (env == nullptr || *env == '\0') return 4;
  unsigned long n = std::strtoul(env, nullptr, 0);
  return n == 0 ? 4 : static_cast<uint32_t>(n);
}

// --- ShardSupervisor state machine (pure decision logic) ------------------

TEST(ShardSupervisor, QuarantineHealAndFailTransitions) {
  ShardSupervisorOptions opt;
  opt.heal_backoff_ticks = 10;
  opt.max_heal_attempts = 2;
  ShardSupervisor sup(3, opt);
  EXPECT_TRUE(sup.serving(1));
  EXPECT_EQ(sup.serving_count(), 3u);

  sup.Quarantine(1, /*now=*/100, Status::Unavailable("boom"));
  EXPECT_EQ(sup.state(1), ShardState::kQuarantined);
  EXPECT_EQ(sup.serving_count(), 2u);
  EXPECT_FALSE(sup.HealDue(1, 105));
  EXPECT_TRUE(sup.HealDue(1, 110));
  EXPECT_EQ(sup.RetryAfterTicks(1, 105), 5u);

  // Failed heal: backoff doubles; a second failure exhausts attempts.
  sup.OnHealFailure(1, 110, Status::DataLoss("still broken"));
  EXPECT_EQ(sup.state(1), ShardState::kQuarantined);
  EXPECT_FALSE(sup.HealDue(1, 115));
  EXPECT_TRUE(sup.HealDue(1, 130));  // 110 + 10*2
  sup.OnHealFailure(1, 130, Status::DataLoss("still broken"));
  EXPECT_EQ(sup.state(1), ShardState::kFailed);
  EXPECT_EQ(sup.RetryAfterTicks(1, 130), 0u);
  EXPECT_FALSE(sup.HealDue(1, 1 << 20));

  // A different shard heals and gets a generation fence bump.
  sup.Quarantine(2, 200, Status::Unavailable("crash"));
  EXPECT_EQ(sup.generation(2), 0u);
  sup.OnHealSuccess(2, 240);
  EXPECT_TRUE(sup.serving(2));
  EXPECT_EQ(sup.generation(2), 1u);
  EXPECT_EQ(sup.heals(), 1u);
  EXPECT_EQ(sup.quarantines(), 2u);
}

TEST(ShardRouter, DeterministicTotalAndSeedSensitive) {
  ShardRouter r(8, 42), r2(8, 42), r3(8, 43);
  std::vector<uint64_t> per_shard(8, 0);
  bool any_diff = false;
  for (uint32_t k = 1; k < 20000; ++k) {
    uint32_t s = r.ShardOf(k);
    ASSERT_LT(s, 8u);
    EXPECT_EQ(s, r2.ShardOf(k));
    any_diff |= (s != r3.ShardOf(k));
    ++per_shard[s];
  }
  EXPECT_TRUE(any_diff) << "router seed must matter";
  for (uint64_t n : per_shard) {
    EXPECT_GT(n, 20000 / 8 / 2) << "routing is badly skewed";
  }
}

TEST(ShardRouter, BulkRoutingMatchesPerKeyRouting) {
  std::vector<uint32_t> keys(5000);
  SplitMix64 rng(3);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng.Next());
  std::vector<uint32_t> out(keys.size());
  const auto key_of = [&](size_t i) { return keys[i]; };
  for (uint32_t n : {1u, 3u, 4u, 6u, 16u}) {
    ShardRouter r(n, 0xABCDEF);
    r.ShardsOf(keys.size(), key_of, out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], r.ShardOf(keys[i])) << "n=" << n;
      ASSERT_EQ(out[i], Mix64(uint64_t{keys[i]} ^ 0xABCDEF) % n) << "n=" << n;
    }
    // Mid-migration, with every other chunk cut over.
    ASSERT_TRUE(r.BeginMigration(2 * n, 8 * n).ok());
    for (uint32_t c = 0; c < 8 * n; c += 2) r.SetCutOver(c);
    r.ShardsOf(keys.size(), key_of, out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], r.ShardOf(keys[i])) << "migrating n=" << n;
    }
  }
}

// --- Deployment + workload helpers ----------------------------------------

struct Env {
  gpusim::DeviceArena arena{0};
  gpusim::Grid grid{1};  // single worker: bitwise-deterministic scenarios
  DyCuckooOptions topt;
  Sharded::Options options;

  explicit Env(uint32_t num_shards) {
    topt.arena = &arena;
    topt.grid = &grid;
    topt.initial_capacity = 16 * 1024;
    options.num_shards = num_shards;
    options.shard.scrub_buckets_per_step = 8;
    options.durability.checkpoint_wal_bytes = 0;
    options.durability.checkpoint_wal_records = 48;
    // Heal backoff far beyond the test horizon: scenarios control the
    // heal moment explicitly with RequestHealNow, so the quarantine
    // window stays open for as long as availability is being measured.
    options.supervisor.heal_backoff_ticks = 1 << 20;
    options.supervisor.max_heal_attempts = 6;
  }
};

struct Ledger {
  SplitMix64 rng{0};
  std::unordered_map<uint32_t, uint32_t> durable_acked;
  std::unordered_set<uint32_t> uncertain;
  std::unordered_set<uint32_t> ever_inserted;
  uint64_t unavailable_outside_fault_domain = 0;
  uint64_t fault_domain_rejections = 0;
  uint64_t ops = 0;
};

void MarkUncertain(const Sharded::Request& req, Ledger* led) {
  for (const Sharded::Op& op : req.ops) {
    if (op.type == OpType::kInsert) {
      led->uncertain.insert(op.key);
      led->ever_inserted.insert(op.key);
    } else if (op.type == OpType::kErase) {
      led->uncertain.insert(op.key);
    }
  }
}

/// `rounds` rounds; each round submits one single-shard request per shard
/// (rejection-sampled keys, so availability accounting is exact: a
/// request to shard s answers kUnavailable only if s itself refused).
/// Responses are classified per the side-effect contract; any
/// kUnavailable for a shard other than `fault_shard` is a fault-domain
/// breach and counted as such.
void RunShardRounds(Sharded* srv, int rounds, uint32_t fault_shard,
                    Ledger* led) {
  const uint32_t n = srv->num_shards();
  struct InFlight {
    uint64_t id;
    uint32_t shard;
    Sharded::Request req;
  };
  for (int r = 0; r < rounds; ++r) {
    std::vector<InFlight> in_flight;
    std::unordered_set<uint32_t> used;
    for (uint32_t s = 0; s < n; ++s) {
      Sharded::Request req;
      for (int i = 0; i < kOpsPerRequest; ++i) {
        uint32_t key;
        do {
          key = 1 + static_cast<uint32_t>(led->rng.Next() % kKeySpace);
        } while (srv->router().ShardOf(key) != s ||
                 !used.insert(key).second);
        uint64_t roll = led->rng.Next() % 10;
        if (roll < 6) {
          req.ops.push_back(Sharded::Op{
              OpType::kInsert, key, static_cast<uint32_t>(led->rng.Next())});
        } else if (roll < 8) {
          req.ops.push_back(Sharded::Op{OpType::kErase, key, 0});
        } else {
          req.ops.push_back(Sharded::Op{OpType::kFind, key, 0});
        }
      }
      led->ops += req.ops.size();
      Sharded::Request copy = req;
      uint64_t id = srv->Submit(std::move(req));
      in_flight.push_back(InFlight{id, s, std::move(copy)});
    }
    srv->RunUntilIdle();
    for (InFlight& f : in_flight) {
      Sharded::Response resp;
      ASSERT_TRUE(srv->TakeResponse(f.id, &resp))
          << "sharded server must always answer (shard " << f.shard << ")";
      const Status& st = resp.status;
      if (st.ok()) {
        for (const Sharded::Op& op : f.req.ops) {
          if (op.type == OpType::kInsert) {
            led->durable_acked[op.key] = op.value;
            led->ever_inserted.insert(op.key);
            led->uncertain.erase(op.key);
          } else if (op.type == OpType::kErase) {
            led->durable_acked.erase(op.key);
            led->uncertain.erase(op.key);
          }
        }
      } else if (st.IsUnavailable()) {
        if (f.shard != fault_shard) ++led->unavailable_outside_fault_domain;
        const std::string* shard_detail = st.FindDetail("shard");
        const std::string* executed = st.FindDetail("executed");
        if (shard_detail != nullptr) {
          // Front-door quarantine rejection or lost in-flight sub.
          EXPECT_EQ(*shard_detail, std::to_string(f.shard));
          EXPECT_NE(st.FindDetail("retry_after_ticks"), nullptr);
          ++led->fault_domain_rejections;
          ASSERT_NE(executed, nullptr);
          if (*executed == "uncertain") MarkUncertain(f.req, led);
        } else {
          // Breaker read-only rejection inside a serving shard: never
          // executed by contract.
        }
      } else if (st.IsResourceExhausted() ||
                 (st.IsDeadlineExceeded() && resp.attempts == 0)) {
        // Contractually never executed.
      } else {
        MarkUncertain(f.req, led);
      }
    }
  }
}

uint64_t ShardTableDigest(Sharded* srv, uint32_t shard) {
  auto pairs = srv->shard_server(shard)->table()->Dump();
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

void VerifyLedger(Sharded* srv, const Ledger& led, const std::string& tag,
                  uint64_t seed) {
  for (const auto& [k, v] : led.durable_acked) {
    if (led.uncertain.count(k)) continue;
    uint32_t shard = srv->router().ShardOf(k);
    ASSERT_TRUE(srv->supervisor().serving(shard))
        << tag << ": shard " << shard << " not serving (seed=" << seed
        << ")";
    uint32_t rv = 0;
    bool found = srv->shard_server(shard)->table()->Find(k, &rv);
    EXPECT_TRUE(found) << tag << ": lost acked key " << k
                       << " on shard " << shard << " (seed=" << seed << ")";
    if (found) {
      EXPECT_EQ(rv, v) << tag << ": acked key " << k
                       << " has wrong value (seed=" << seed << ")";
    }
  }
  for (uint32_t s = 0; s < srv->num_shards(); ++s) {
    if (!srv->supervisor().serving(s)) continue;
    for (const auto& [k, v] : srv->shard_server(s)->table()->Dump()) {
      EXPECT_EQ(srv->router().ShardOf(k), s)
          << tag << ": key " << k << " mis-homed on shard " << s;
      EXPECT_TRUE(led.ever_inserted.count(k))
          << tag << ": phantom key " << k << " (seed=" << seed << ")";
    }
  }
}

void MaybeDumpShardArtifacts(const std::string& scenario, uint64_t seed,
                             Sharded* srv) {
  const char* dir = std::getenv("DYCUCKOO_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  for (uint32_t s = 0; s < srv->num_shards(); ++s) {
    std::ofstream out(std::string(dir) + "/" + scenario + "-shard-" +
                      std::to_string(s) + ".report.txt");
    out << "scenario: " << scenario << "\nseed: " << seed << "\nstate: "
        << ShardStateName(srv->supervisor().state(s)) << "\ngeneration: "
        << srv->supervisor().generation(s) << "\n"
        << srv->last_heal_report(s).ToString() << "\n";
    if (auto* fi = gpusim::FaultInjector::Active()) {
      // Memory-fault counters ride along with the I/O ones so a replayed
      // DYCUCKOO_CHAOS_SEED can be checked against the original campaign.
      out << "memory_faults_seen: " << fi->memory_faults_seen() << "\n"
          << "memory_faults_injected: " << fi->memory_faults_injected()
          << "\n";
    }
  }
}

// --- Functional basics ----------------------------------------------------

// Regression for a bug the [[nodiscard]] sweep surfaced: the heal path
// called ScrubAll() on the freshly recovered table and dropped the
// report, so a replay that produced corrupted slots (which the scrub
// unpublishes) would bring the shard up silently missing acknowledged
// keys.  The gate must pass clean reports and fail dirty ones with a
// machine-readable DataLoss.
TEST(ShardedServer, HealScrubGateRejectsDirtyRecoveredImages) {
  DynamicTable<uint32_t, uint32_t>::ScrubReport clean;
  EXPECT_TRUE(Sharded::CheckHealScrub(clean).ok());

  DynamicTable<uint32_t, uint32_t>::ScrubReport dirty;
  dirty.corrupted_slots = 3;
  Status st = Sharded::CheckHealScrub(dirty);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  ASSERT_NE(st.FindDetail("corruption"), nullptr);
  EXPECT_EQ(*st.FindDetail("corruption"), "repairable");

  dirty.corrupted_unattributable = 1;
  st = Sharded::CheckHealScrub(dirty);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  ASSERT_NE(st.FindDetail("corruption"), nullptr);
  EXPECT_EQ(*st.FindDetail("corruption"), "unrepairable");
}

TEST(ShardedServer, RoutesEveryKeyToExactlyOneShard) {
  Env env(4);
  std::unique_ptr<Sharded> srv;
  ASSERT_TRUE(Sharded::Create(env.topt, env.options, &srv).ok());

  std::vector<uint32_t> keys = testing::UniqueKeys(1500, 7);
  Sharded::Request req;
  for (size_t i = 0; i < keys.size(); ++i) {
    req.ops.push_back(Sharded::Op{OpType::kInsert, keys[i],
                                  static_cast<uint32_t>(i + 1)});
  }
  uint64_t id = srv->Submit(std::move(req));
  srv->RunUntilIdle();
  Sharded::Response resp;
  ASSERT_TRUE(srv->TakeResponse(id, &resp));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(srv->total_size(), keys.size());

  // Each shard's table holds exactly the keys the router assigns it.
  for (uint32_t s = 0; s < 4; ++s) {
    for (const auto& [k, v] : srv->shard_server(s)->table()->Dump()) {
      EXPECT_EQ(srv->router().ShardOf(k), s);
    }
  }

  // A spanning request returns per-op results in the ORIGINAL op order.
  Sharded::Request find;
  for (size_t i = 0; i < keys.size(); i += 97) {
    find.ops.push_back(Sharded::Op{OpType::kFind, keys[i], 0});
  }
  size_t find_ops = find.ops.size();
  id = srv->Submit(std::move(find));
  srv->RunUntilIdle();
  ASSERT_TRUE(srv->TakeResponse(id, &resp));
  ASSERT_TRUE(resp.status.ok());
  ASSERT_EQ(resp.results.size(), find_ops);
  size_t idx = 0;
  for (size_t i = 0; i < keys.size(); i += 97, ++idx) {
    EXPECT_EQ(resp.results[idx].hit, 1u) << "key " << keys[i];
    EXPECT_EQ(resp.results[idx].value, static_cast<uint32_t>(i + 1));
  }

  // Empty requests complete OK immediately.
  id = srv->Submit(Sharded::Request{});
  ASSERT_TRUE(srv->TakeResponse(id, &resp));
  EXPECT_TRUE(resp.status.ok());

  // The manifest records this deployment's routing identity.
  EXPECT_TRUE(srv->manifest()
                  .ValidateCompatible(4, env.options.router_seed, 4, 4)
                  .ok());
}

// Satellite: a crashed shard's rejections carry machine-readable shard id
// and retry-after; an in-flight spanning request resolves the dead
// shard's portion as "uncertain" while healthy shards' results survive.
TEST(ShardedServer, QuarantineRejectionsCarryShardAndRetryAfter) {
  Env env(4);
  env.options.supervisor.heal_backoff_ticks = 1 << 20;  // no heal yet
  std::unique_ptr<Sharded> srv;
  ASSERT_TRUE(Sharded::Create(env.topt, env.options, &srv).ok());
  const uint32_t kTarget = 1;

  // Keys on each shard, found by rejection sampling.
  SplitMix64 rng(11);
  auto key_on = [&](uint32_t shard) {
    for (;;) {
      uint32_t k = 1 + static_cast<uint32_t>(rng.Next() % kKeySpace);
      if (srv->router().ShardOf(k) == shard) return k;
    }
  };

  // A spanning request in flight while shard 1's WAL commit kills it.
  gpusim::FaultInjectorConfig cfg;
  cfg.seed = 5;
  cfg.kill_at_point = 0;
  cfg.kill_point_filter = durability::ShardScope(kTarget) + "wal.commit.mid";
  Sharded::Response resp;
  {
    gpusim::ScopedFaultInjection scoped(cfg);
    Sharded::Request req;
    for (uint32_t s = 0; s < 4; ++s) {
      req.ops.push_back(Sharded::Op{OpType::kInsert, key_on(s), s + 100});
    }
    uint64_t id = srv->Submit(std::move(req));
    srv->RunUntilIdle();
    ASSERT_TRUE(srv->TakeResponse(id, &resp));
    ASSERT_EQ(scoped.injector().kill_points_fired(), 1u);
  }
  ASSERT_EQ(srv->supervisor().state(kTarget), ShardState::kQuarantined);
  ASSERT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
  const std::string* executed = resp.status.FindDetail("executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(*executed, "uncertain")
      << "in-flight sub-request on the dead shard is uncertain, not never";
  const std::string* shard_detail = resp.status.FindDetail("shard");
  ASSERT_NE(shard_detail, nullptr);
  EXPECT_EQ(*shard_detail, std::to_string(kTarget));

  // Front-door rejection for a new request: executed=never, retry hint.
  Sharded::Request rejected;
  rejected.ops.push_back(Sharded::Op{OpType::kInsert, key_on(kTarget), 9});
  uint64_t id = srv->Submit(std::move(rejected));
  ASSERT_TRUE(srv->TakeResponse(id, &resp));  // completed synchronously
  ASSERT_TRUE(resp.status.IsUnavailable());
  ASSERT_NE(resp.status.FindDetail("shard"), nullptr);
  EXPECT_EQ(*resp.status.FindDetail("shard"), std::to_string(kTarget));
  ASSERT_NE(resp.status.FindDetail("retry_after_ticks"), nullptr);
  EXPECT_GT(std::strtoull(
                resp.status.FindDetail("retry_after_ticks")->c_str(),
                nullptr, 10),
            0u);
  ASSERT_NE(resp.status.FindDetail("executed"), nullptr);
  EXPECT_EQ(*resp.status.FindDetail("executed"), "never");

  // Healthy shards are untouched: their requests succeed with no
  // Unavailable while shard 1 sits in quarantine.
  for (uint32_t s = 0; s < 4; ++s) {
    if (s == kTarget) continue;
    Sharded::Request ok_req;
    ok_req.ops.push_back(Sharded::Op{OpType::kInsert, key_on(s), s});
    id = srv->Submit(std::move(ok_req));
    srv->RunUntilIdle();
    ASSERT_TRUE(srv->TakeResponse(id, &resp));
    EXPECT_TRUE(resp.status.ok())
        << "shard " << s << ": " << resp.status.ToString();
  }
}

// --- The chaos soak -------------------------------------------------------

struct SoakOutcome {
  bool quarantined = false;
  bool healed = false;
  uint64_t heal_report_digest = 0;
  std::vector<uint64_t> shard_digests;
  uint64_t total_size = 0;
};

/// One full fault-domain scenario: soak with a shard-targeted kill point,
/// verify N-1 availability during quarantine, wait for self-heal, verify
/// no acked write was lost, resume fault-free, verify again.
SoakOutcome RunKillPointScenario(const std::string& kill_point,
                                 uint32_t target, uint64_t seed) {
  SCOPED_TRACE("kill=" + kill_point + " target_shard=" +
               std::to_string(target) + " | " +
               testing::ChaosReproLine("tests/test_sharded_server", seed));
  SoakOutcome outcome;
  const uint32_t n = NumShardsFromEnv();
  Env env(n);
  std::unique_ptr<Sharded> srv;
  Status st = Sharded::Create(env.topt, env.options, &srv);
  if (!st.ok()) {
    ADD_FAILURE() << "Create failed: " << st.ToString();
    return outcome;
  }

  Ledger led;
  led.rng = SplitMix64(seed);

  gpusim::FaultInjectorConfig cfg;
  cfg.seed = seed;
  cfg.kill_at_point = 0;
  cfg.kill_point_filter = durability::ShardScope(target) + kill_point;
  {
    gpusim::ScopedFaultInjection scoped(cfg);
    RunShardRounds(srv.get(), kSoakRounds, target, &led);
    EXPECT_EQ(scoped.injector().kill_points_fired(), 1u)
        << "the targeted kill point never fired; scenario is vacuous";
    outcome.quarantined =
        srv->supervisor().state(target) == ShardState::kQuarantined;
    EXPECT_TRUE(outcome.quarantined);
    EXPECT_EQ(srv->supervisor().serving_count(), n - 1);

    // N-1 availability: the other shards serve the whole quarantine with
    // zero Unavailable.  (Auto-heal is due after a few ticks; hold it off
    // by checking availability first, then stepping toward the heal.)
    if (n > 1) {
      Ledger before = led;
      RunShardRounds(srv.get(), kQuarantineRounds, target, &led);
      EXPECT_EQ(led.unavailable_outside_fault_domain, 0u)
          << "a healthy shard refused service during another shard's "
             "quarantine";
      EXPECT_GT(led.fault_domain_rejections,
                before.fault_domain_rejections)
          << "quarantined shard must reject, not hang";
    }

    EXPECT_EQ(srv->supervisor().state(target), ShardState::kQuarantined)
        << "quarantine window must hold for the whole availability "
           "measurement";

    // Self-heal: recovery + scrub + probation re-admission, all inside
    // Step() on the master clock.  The kill point stays installed — it
    // fires only at crossing #0, so the heal runs against live faults
    // armed but never triggered, like a real one-shot fault.
    srv->RequestHealNow(target);
    for (int i = 0;
         i < 5000 && !srv->supervisor().serving(target); ++i) {
      srv->Step();
    }
  }
  outcome.healed = srv->supervisor().serving(target);
  EXPECT_TRUE(outcome.healed)
      << "shard failed to self-heal: "
      << srv->supervisor().last_heal_status(target).ToString();
  if (!outcome.healed) {
    MaybeDumpShardArtifacts("soak-" + kill_point, seed, srv.get());
    return outcome;
  }
  EXPECT_EQ(srv->supervisor().generation(target), 1u);
  EXPECT_EQ(srv->supervisor().heals(), 1u);
  outcome.heal_report_digest = srv->last_heal_report(target).Digest();
  EXPECT_EQ(srv->last_heal_report(target).segment,
            durability::WalSegmentName(target, n));

  // Healed shard re-admits writes through the breaker's half-open probe:
  // it is read-only until the probe write lands.
  EXPECT_TRUE(srv->shard_server(target)->read_only());

  // Reconcile: the healed shard is the authority for uncertain keys.
  for (auto it = led.uncertain.begin(); it != led.uncertain.end();) {
    uint32_t k = *it;
    uint32_t shard = srv->router().ShardOf(k);
    uint32_t rv = 0;
    if (srv->shard_server(shard)->table()->Find(k, &rv)) {
      led.durable_acked[k] = rv;
    } else {
      led.durable_acked.erase(k);
    }
    it = led.uncertain.erase(it);
  }
  VerifyLedger(srv.get(), led, "post-heal", seed);

  // Resume fault-free: the probe write closes the breaker and the whole
  // deployment finishes the workload.
  RunShardRounds(srv.get(), kResumeRounds, kNoFaultShard, &led);
  EXPECT_EQ(led.unavailable_outside_fault_domain, 0u);
  EXPECT_EQ(srv->shard_server(target)->breaker().state(),
            CircuitBreaker::State::kClosed)
      << "probe write should have closed the healed shard's breaker";
  EXPECT_TRUE(led.uncertain.empty());
  VerifyLedger(srv.get(), led, "post-resume", seed);
  EXPECT_EQ(srv->total_size(), led.durable_acked.size());

  outcome.total_size = srv->total_size();
  for (uint32_t s = 0; s < n; ++s) {
    outcome.shard_digests.push_back(ShardTableDigest(srv.get(), s));
  }
  MaybeDumpShardArtifacts("soak-" + kill_point, seed, srv.get());
  return outcome;
}

TEST(ShardedChaosSoak, EveryKillPointQuarantinesOnlyItsShard) {
  const uint64_t seed = testing::ChaosSeedFromEnv(0xD1C0CC01);
  const uint32_t n = NumShardsFromEnv();
  for (size_t i = 0; i < durability::kNumKillPoints; ++i) {
    const uint32_t target = static_cast<uint32_t>((seed + i) % n);
    RunKillPointScenario(durability::kKillPointNames[i], target,
                         seed ^ (i * 0x9E3779B9u));
  }
}

TEST(ShardedChaosSoak, SameSeedReplaysBitIdentically) {
  const uint64_t seed = testing::ChaosSeedFromEnv(0xD1C0CC02);
  const uint32_t n = NumShardsFromEnv();
  const uint32_t target = static_cast<uint32_t>(seed % n);
  SoakOutcome a = RunKillPointScenario("wal.commit.mid", target, seed);
  SoakOutcome b = RunKillPointScenario("wal.commit.mid", target, seed);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.healed, b.healed);
  EXPECT_EQ(a.heal_report_digest, b.heal_report_digest)
      << "recovery reports must replay bit-identically under one seed";
  EXPECT_EQ(a.total_size, b.total_size);
  EXPECT_EQ(a.shard_digests, b.shard_digests)
      << "per-shard table contents must replay bit-identically";
}

// --- Pinned serial order on a one-worker grid ------------------------------

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T v) {
  return Fnv(h, &v, sizeof(v));
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return Fnv(FnvValue(h, s.size()), s.data(), s.size());
}

struct PinnedRun {
  uint64_t responses = 1469598103934665603ull;  // every response, in order
  uint64_t clock = 1469598103934665603ull;      // Now() after every Step
  uint64_t tables = 1469598103934665603ull;     // per-shard table digests
  std::string stats;                            // ShardedServerStats
  // Coverage of the scenario: each outcome below must occur at least once,
  // or the pin would not cover the path it is meant to fence.
  uint64_t ok = 0, data_loss = 0, breaker_unavailable = 0, never = 0,
           uncertain = 0, queue_full = 0, deadline_queued = 0,
           deadline_admission = 0;
  bool healed = false;
};

/// A seeded scenario on a one-worker grid: mixed spanning requests with
/// deadlines and a tight per-shard queue, a breaker trip and half-open
/// probe, and one quarantine plus heal.  Every response, the master clock
/// after every Step, the front-door counters and the final shard contents
/// are folded into digests that pin the deployment's serial behaviour.
PinnedRun RunPinnedScenario(uint32_t n, uint64_t seed) {
  Env env(n);
  env.options.shard.queue_capacity = 6;
  env.options.shard.max_batch_ops = 48;
  std::unique_ptr<Sharded> srv;
  PinnedRun run;
  if (!Sharded::Create(env.topt, env.options, &srv).ok()) {
    ADD_FAILURE() << "Create failed";
    return run;
  }
  SplitMix64 rng(seed);
  const uint32_t breaker_shard = 1 % n;
  const uint32_t crash_shard = 2 % n;

  auto step = [&] {
    srv->Step();
    run.clock = FnvValue(run.clock, srv->clock()->Now());
  };
  auto record = [&](const Sharded::Response& resp) {
    const Status& st = resp.status;
    run.responses = FnvString(run.responses, st.ToString());
    run.responses = FnvValue(run.responses, resp.attempts);
    run.responses = FnvValue(run.responses, resp.completed_at);
    run.responses = FnvValue(run.responses, resp.results.size());
    for (const Sharded::OpResult& r : resp.results) {
      run.responses = FnvValue(run.responses, r.hit);
      run.responses = FnvValue(run.responses, r.value);
    }
    const std::string* executed = st.FindDetail("executed");
    if (st.ok()) {
      ++run.ok;
    } else if (st.IsDataLoss()) {
      ++run.data_loss;
    } else if (st.IsResourceExhausted()) {
      ++run.queue_full;
    } else if (st.IsDeadlineExceeded()) {
      if (st.message().find("admission") != std::string::npos) {
        ++run.deadline_admission;
      } else {
        ++run.deadline_queued;
      }
    } else if (st.IsUnavailable() && executed == nullptr) {
      ++run.breaker_unavailable;
    }
    if (executed != nullptr && *executed == "never") ++run.never;
    if (executed != nullptr && *executed == "uncertain") ++run.uncertain;
  };
  // One round: a burst of spanning requests, then Steps until every one
  // of them is answered (responses are taken after each Step).
  auto round = [&](int requests) {
    std::vector<uint64_t> ids;
    for (int r = 0; r < requests; ++r) {
      Sharded::Request req;
      const int ops = 1 + static_cast<int>(rng.Next() % 16);
      for (int i = 0; i < ops; ++i) {
        const uint32_t key = 1 + static_cast<uint32_t>(rng.Next() % 2048);
        const uint64_t roll = rng.Next() % 10;
        const OpType type = roll < 5   ? OpType::kInsert
                            : roll < 7 ? OpType::kErase
                                       : OpType::kFind;
        req.ops.push_back(
            Sharded::Op{type, key, static_cast<uint32_t>(rng.Next())});
      }
      const uint64_t d = rng.Next() % 16;
      const uint64_t now = srv->clock()->Now();
      if (d == 0 && now > 1) {
        req.deadline = 1;  // already past: refused at admission
      } else if (d < 3) {
        req.deadline = now + 1 + rng.Next() % 4;  // likely expires queued
      }
      ids.push_back(srv->Submit(std::move(req)));
    }
    std::vector<bool> done(ids.size(), false);
    size_t remaining = ids.size();
    for (int guard = 0; remaining > 0 && guard < 1000; ++guard) {
      for (size_t i = 0; i < ids.size(); ++i) {
        Sharded::Response resp;
        if (!done[i] && srv->TakeResponse(ids[i], &resp)) {
          done[i] = true;
          --remaining;
          run.responses = FnvValue(run.responses, i);
          record(resp);
        }
      }
      if (remaining > 0) step();
    }
    EXPECT_EQ(remaining, 0u) << "requests left unanswered";
  };

  for (int r = 0; r < 6; ++r) round(12);
  {
    // Every group commit of one shard fails cleanly: its writes answer
    // DataLoss until the breaker trips, then Unavailable; reads still run.
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = seed;
    cfg.io_scope_filter = durability::ShardScope(breaker_shard);
    cfg.io_flush_fail_probability = 1.0;
    gpusim::ScopedFaultInjection scoped(cfg);
    for (int r = 0; r < 4; ++r) round(12);
  }
  // Past the cooldown: the next write to the shard is the one probe.
  srv->clock()->Advance(env.options.shard.breaker.cooldown_ticks + 1);
  for (int r = 0; r < 3; ++r) round(12);
  {
    gpusim::FaultInjectorConfig cfg;
    cfg.seed = seed;
    cfg.kill_at_point = 0;
    cfg.kill_point_filter =
        durability::ShardScope(crash_shard) + "wal.commit.mid";
    gpusim::ScopedFaultInjection scoped(cfg);
    for (int r = 0; r < 3; ++r) round(12);
  }
  srv->RequestHealNow(crash_shard);
  for (int i = 0; i < 50 && !srv->supervisor().serving(crash_shard); ++i) {
    step();
  }
  run.healed = srv->supervisor().serving(crash_shard);
  for (int r = 0; r < 4; ++r) round(12);

  const ShardedServerStats& s = srv->stats();
  run.stats = "submitted=" + std::to_string(s.submitted.load()) +
              " completed=" + std::to_string(s.completed.load()) +
              " subrequests=" + std::to_string(s.subrequests.load()) +
              " shard_rejections=" + std::to_string(s.shard_rejections.load()) +
              " subrequests_lost=" + std::to_string(s.subrequests_lost.load()) +
              " reshard_blocked_writes=" +
              std::to_string(s.reshard_blocked_writes.load()) +
              " reshard_rollback_erased=" +
              std::to_string(s.reshard_rollback_erased.load());
  for (uint32_t sh = 0; sh < n; ++sh) {
    run.tables = FnvValue(run.tables,
                          srv->supervisor().serving(sh)
                              ? ShardTableDigest(srv.get(), sh)
                              : 0);
  }
  return run;
}

// The serial order of a sharded deployment on a one-worker grid, pinned:
// changes to how shard Steps are scheduled or how requests are routed
// must leave every response, every virtual timestamp, the front-door
// counters and the shard contents bit-identical.
TEST(ShardedServerPinned, OneWorkerGridServesInPinnedSerialOrder) {
  struct Pin {
    uint32_t shards;
    uint64_t responses, clock, tables;
    const char* stats;
  };
  const Pin pins[] = {
      {4, 15112689654608186859ull, 9570352135350907487ull,
       9581539074065033054ull,
       "submitted=240 completed=240 subrequests=760 shard_rejections=38 "
       "subrequests_lost=10 reshard_blocked_writes=0 "
       "reshard_rollback_erased=0"},
      {16, 7724706273858078139ull, 10765533961247428725ull,
       7235340450707132768ull,
       "submitted=240 completed=240 subrequests=1507 shard_rejections=9 "
       "subrequests_lost=7 reshard_blocked_writes=0 "
       "reshard_rollback_erased=0"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("shards=" + std::to_string(pin.shards));
    const PinnedRun run = RunPinnedScenario(pin.shards, 0x5EED0022);
    EXPECT_GT(run.ok, 0u);
    EXPECT_GT(run.data_loss, 0u);
    EXPECT_GT(run.breaker_unavailable, 0u);
    EXPECT_GT(run.never, 0u);
    EXPECT_GT(run.uncertain, 0u);
    EXPECT_GT(run.queue_full, 0u);
    EXPECT_GT(run.deadline_queued, 0u);
    EXPECT_GT(run.deadline_admission, 0u);
    EXPECT_TRUE(run.healed);
    EXPECT_EQ(run.responses, pin.responses);
    EXPECT_EQ(run.clock, pin.clock);
    EXPECT_EQ(run.tables, pin.tables);
    EXPECT_EQ(run.stats, pin.stats);
    // Same seed, same process: the scenario replays bit-identically.
    const PinnedRun again = RunPinnedScenario(pin.shards, 0x5EED0022);
    EXPECT_EQ(again.responses, run.responses);
    EXPECT_EQ(again.clock, run.clock);
    EXPECT_EQ(again.tables, run.tables);
  }
}

// Shard-targeted allocation faults: the per-shard memory tag scopes an
// OOM campaign to one shard.  The faulted shard cannot grow (its resize
// allocations all fail; the stash absorbs the overflow, so it keeps
// serving — degraded, not dead) while the other shard's resizes proceed
// untouched.
TEST(ShardedServer, AllocFaultsScopeToOneShardTag) {
  Env env(2);
  std::unique_ptr<Sharded> srv;
  ASSERT_TRUE(Sharded::Create(env.topt, env.options, &srv).ok());
  EXPECT_EQ(srv->shard_table_options(0).memory_tag,
            durability::ShardScope(0) + "dycuckoo");
  EXPECT_EQ(srv->shard_table_options(1).memory_tag,
            durability::ShardScope(1) + "dycuckoo");
  EXPECT_NE(srv->shard_table_options(0).seed,
            srv->shard_table_options(1).seed)
      << "shard hash seeds must be decorrelated";

  const uint64_t bytes0_before =
      env.arena.used_bytes_for(srv->shard_table_options(0).memory_tag);
  const uint64_t bytes1_before =
      env.arena.used_bytes_for(srv->shard_table_options(1).memory_tag);
  EXPECT_EQ(bytes0_before, bytes1_before)
      << "shards start from identical footprints";

  gpusim::FaultInjectorConfig cfg;
  cfg.seed = 3;
  cfg.fail_after_allocs = 0;  // every allocation under the tag fails...
  cfg.alloc_tag_filter = durability::ShardScope(1);  // ...for shard 1 only
  gpusim::ScopedFaultInjection scoped(cfg);

  // Push well past each shard's initial capacity so growth is mandatory.
  // Every request must still be acked: shard 0 grows normally; shard 1's
  // resize allocations all fail under the campaign and its overflow goes
  // to the stash instead.
  SplitMix64 rng(17);
  for (int round = 0; round < 280; ++round) {
    Sharded::Request req0, req1;
    while (req0.ops.size() < 64 || req1.ops.size() < 64) {
      uint32_t k = 1 + static_cast<uint32_t>(rng.Next());
      if (k >= 0xfffffffeu) continue;
      uint32_t v = static_cast<uint32_t>(rng.Next());
      Sharded::Request& req =
          srv->router().ShardOf(k) == 0 ? req0 : req1;
      if (req.ops.size() < 64) {
        req.ops.push_back(Sharded::Op{OpType::kInsert, k, v});
      }
    }
    uint64_t id0 = srv->Submit(std::move(req0));
    uint64_t id1 = srv->Submit(std::move(req1));
    srv->RunUntilIdle();
    Sharded::Response resp;
    ASSERT_TRUE(srv->TakeResponse(id0, &resp));
    EXPECT_TRUE(resp.status.ok())
        << "shard 0 must be untouched by shard 1's alloc campaign: "
        << resp.status.ToString();
    ASSERT_TRUE(srv->TakeResponse(id1, &resp));
    EXPECT_TRUE(resp.status.ok())
        << "alloc exhaustion degrades shard 1, it must not drop writes: "
        << resp.status.ToString();
  }

  // The campaign matched shard 1's allocations — and ONLY shard 1's: its
  // device footprint is frozen at the creation-time bytes while shard 0,
  // holding the same key volume, grew.
  EXPECT_GT(scoped.injector().allocations_failed(), 0u)
      << "campaign never matched shard 1's tag — scoping is broken";
  EXPECT_EQ(scoped.injector().allocations_failed(),
            scoped.injector().allocations_seen())
      << "only shard 1's (all-failing) allocations may match the filter";
  const uint64_t bytes0_after =
      env.arena.used_bytes_for(srv->shard_table_options(0).memory_tag);
  const uint64_t bytes1_after =
      env.arena.used_bytes_for(srv->shard_table_options(1).memory_tag);
  EXPECT_GT(bytes0_after, bytes0_before)
      << "shard 0 never resized; the scenario is vacuous";
  EXPECT_EQ(bytes1_after, bytes1_before)
      << "shard 1 allocated device memory despite the campaign";
  // Both shards hold their full key volume — far past the frozen shard's
  // device capacity (shard 1's overflow lives in the stash) — and an
  // alloc-starved shard is degraded, not an integrity fault: nobody gets
  // quarantined.
  EXPECT_GT(srv->shard_server(0)->table()->size(), 16000u);
  EXPECT_GT(srv->shard_server(1)->table()->size(), 16000u);
  EXPECT_EQ(srv->supervisor().serving_count(), 2u);
}

}  // namespace
}  // namespace service
}  // namespace dycuckoo
