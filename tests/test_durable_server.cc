// Chaos acceptance for the durability stack: a TableServer with an
// attached DurabilityManager is crashed at every kill point and under
// every crash-style I/O fault while a shadow map tracks exactly which
// writes were acknowledged; after each crash, Recover() must rebuild a
// table that (a) contains every acknowledged write and (b) contains no
// phantom or resurrected key.  The recovered table is then adopted by a
// fresh server and the workload resumes fault-free to completion.
//
// Reproduce a CI failure locally with DYCUCKOO_CHAOS_SEED=<seed> (the
// failing seed is printed in every assertion message).  Set
// DYCUCKOO_CHAOS_ARTIFACT_DIR to dump the WAL/checkpoint images of a
// failing scenario for offline inspection.

#include "service/table_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "durability/log_format.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "test_util.h"

namespace dycuckoo {
namespace service {
namespace {

using Server = TableServer<uint32_t, uint32_t>;
using OpType = Server::OpType;
using Table = DynamicTable<uint32_t, uint32_t>;
using Manager = durability::DurabilityManager<uint32_t, uint32_t>;

constexpr int kSoakRounds = 80;
constexpr int kResumeRounds = 30;
constexpr int kRequestsPerRound = 6;
constexpr int kOpsPerRequest = 16;
constexpr uint32_t kKeySpace = 4096;

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

/// The client-side ledger the acceptance criteria are phrased against.
///
///   durable_acked: key -> value as of the last OK-acknowledged write.
///   uncertain:     keys whose durable state the client cannot assert —
///                  touched by a DataLoss / partial-failure / retried-then-
///                  expired response, or by a request that never got an ack
///                  before the crash.  (A later OK write re-certifies the
///                  key and removes it from the set.)
///   ever_inserted: every key that any possibly-executed insert carried;
///                  the recovered table may contain nothing outside it.
struct WorkloadState {
  SplitMix64 rng{0};
  std::unordered_map<uint32_t, uint32_t> durable_acked;
  std::unordered_set<uint32_t> uncertain;
  std::unordered_set<uint32_t> ever_inserted;
  uint64_t ops = 0;
  uint64_t data_loss_responses = 0;
};

void MarkUncertain(const Server::Request& req, WorkloadState* s) {
  for (const Server::Op& op : req.ops) {
    if (op.type == OpType::kInsert) {
      s->uncertain.insert(op.key);
      s->ever_inserted.insert(op.key);
    } else if (op.type == OpType::kErase) {
      s->uncertain.insert(op.key);
    }
  }
}

/// Runs `rounds` micro-batch rounds of a 60/20/20 insert/erase/find mix,
/// classifying every response per the server's side-effect contract.
/// Stops early once the server crashed (a dead server acks nothing).
void RunRounds(Server* server, int rounds, WorkloadState* s) {
  for (int r = 0; r < rounds && !server->crashed(); ++r) {
    std::vector<std::pair<uint64_t, Server::Request>> in_flight;
    // Distinct keys within a round: duplicate keys inside one coalesced
    // batch would race and make the shadow map ill-defined.
    std::unordered_set<uint32_t> used;
    for (int q = 0; q < kRequestsPerRound; ++q) {
      Server::Request req;
      for (int i = 0; i < kOpsPerRequest; ++i) {
        uint32_t key;
        do {
          key = 1 + static_cast<uint32_t>(s->rng.Next() % kKeySpace);
        } while (!used.insert(key).second);
        uint64_t roll = s->rng.Next() % 10;
        if (roll < 6) {
          req.ops.push_back(Server::Op{OpType::kInsert, key,
                                       static_cast<uint32_t>(s->rng.Next())});
        } else if (roll < 8) {
          req.ops.push_back(Server::Op{OpType::kErase, key, 0});
        } else {
          req.ops.push_back(Server::Op{OpType::kFind, key, 0});
        }
      }
      s->ops += req.ops.size();
      Server::Request copy = req;
      uint64_t id = server->Submit(std::move(req));
      in_flight.emplace_back(id, std::move(copy));
    }
    server->RunUntilIdle();
    for (auto& [id, req] : in_flight) {
      Server::Response resp;
      if (!server->TakeResponse(id, &resp)) {
        MarkUncertain(req, s);  // crashed before the ack left
        continue;
      }
      const Status& st = resp.status;
      if (st.ok()) {
        for (const Server::Op& op : req.ops) {
          if (op.type == OpType::kInsert) {
            s->durable_acked[op.key] = op.value;
            s->ever_inserted.insert(op.key);
            s->uncertain.erase(op.key);
          } else if (op.type == OpType::kErase) {
            s->durable_acked.erase(op.key);
            s->uncertain.erase(op.key);
          }
        }
      } else if (st.IsResourceExhausted() || st.IsUnavailable() ||
                 (st.IsDeadlineExceeded() && resp.attempts == 0)) {
        // Contractually never executed: no table or WAL effect.
      } else {
        if (st.IsDataLoss()) ++s->data_loss_responses;
        MarkUncertain(req, s);
      }
    }
  }
}

struct ScenarioOutcome {
  bool crashed = false;
  uint64_t ops = 0;
  uint64_t recovery_digest = 0;
  uint64_t table_digest = 0;
  uint64_t data_loss_responses = 0;
  std::string wal_image;
  std::string ckpt_image;
};

void MaybeDumpArtifacts(const std::string& scenario, uint64_t seed,
                        const ScenarioOutcome& o) {
  const char* dir = std::getenv("DYCUCKOO_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string base = std::string(dir) + "/" + scenario;
  std::ofstream(base + ".wal", std::ios::binary) << o.wal_image;
  std::ofstream(base + ".ckpt", std::ios::binary) << o.ckpt_image;
  std::ofstream(base + ".seed") << seed << "\n";
}

/// One full chaos scenario: serve under (optional) injected faults, crash,
/// recover, verify the acceptance invariants, resume, verify again.
ScenarioOutcome RunScenario(const std::string& name,
                            const gpusim::FaultInjectorConfig* fault_cfg,
                            uint64_t seed) {
  SCOPED_TRACE(name + " | " +
               testing::ChaosReproLine("tests/test_durable_server", seed));
  ScenarioOutcome outcome;

  gpusim::DeviceArena arena(/*capacity_bytes=*/0);  // unbounded, private
  gpusim::Grid grid(1);  // single worker: bitwise-deterministic scenarios
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  topt.initial_capacity = 8192;

  TableServerOptions sopt;
  sopt.scrub_buckets_per_step = 16;

  durability::DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 0;
  dopts.checkpoint_wal_records = 96;  // several checkpoints per scenario

  std::unique_ptr<Server> server;
  Status st = Server::Create(topt, sopt, &server);
  if (!st.ok()) {
    ADD_FAILURE() << name << ": Create failed: " << st.ToString();
    return outcome;
  }
  Manager manager(dopts);
  server->AttachDurability(&manager);

  WorkloadState state;
  state.rng = SplitMix64(seed);
  {
    std::unique_ptr<gpusim::ScopedFaultInjection> scoped;
    if (fault_cfg != nullptr) {
      gpusim::FaultInjectorConfig cfg = *fault_cfg;
      cfg.seed = seed;
      scoped = std::make_unique<gpusim::ScopedFaultInjection>(cfg);
    }
    RunRounds(server.get(), kSoakRounds, &state);
  }
  outcome.crashed = server->crashed();
  outcome.wal_image = manager.wal().durable_image();
  outcome.ckpt_image = manager.checkpoints().durable_image();

  // --- Point-in-time recovery from the crash images -----------------------
  std::istringstream ckpt_stream(outcome.ckpt_image);
  std::istringstream wal_stream(outcome.wal_image);
  std::unique_ptr<Table> recovered;
  durability::RecoveryReport report;
  st = durability::Recover<uint32_t, uint32_t>(ckpt_stream, wal_stream, topt,
                                               &recovered, &report);
  if (!st.ok()) {
    ADD_FAILURE() << name << ": recovery failed: " << st.ToString()
                  << " (seed=" << seed << ")";
    outcome.ops = state.ops;
    outcome.data_loss_responses = state.data_loss_responses;
    return outcome;
  }
  outcome.recovery_digest = report.Digest();
  outcome.table_digest = TableDigest(*recovered);

  // No lost acknowledged write: every OK-acked key the client can still
  // reason about must be present with the acked value.
  for (const auto& [k, v] : state.durable_acked) {
    if (state.uncertain.count(k)) continue;
    uint32_t rv = 0;
    bool found = recovered->Find(k, &rv);
    EXPECT_TRUE(found) << name << ": lost acked key " << k
                       << " (seed=" << seed << ")";
    if (found) {
      EXPECT_EQ(rv, v) << name << ": acked key " << k
                       << " recovered with wrong value (seed=" << seed << ")";
    }
  }
  // No phantom key: nothing recovers that no insert ever carried.
  for (const auto& [k, v] : recovered->Dump()) {
    EXPECT_TRUE(state.ever_inserted.count(k))
        << name << ": phantom key " << k << " (seed=" << seed << ")";
  }
  // No resurrected key: an acked erase (with no later uncertainty) sticks.
  for (uint32_t k : state.ever_inserted) {
    if (state.durable_acked.count(k) || state.uncertain.count(k)) continue;
    EXPECT_FALSE(recovered->Find(k))
        << name << ": erased key " << k << " resurrected (seed=" << seed
        << ")";
  }

  // --- Resume: adopt the recovered table and finish fault-free ------------
  if (outcome.crashed) {
    // The recovered table is now the authority for every uncertain key.
    for (uint32_t k : state.uncertain) {
      uint32_t rv = 0;
      if (recovered->Find(k, &rv)) {
        state.durable_acked[k] = rv;
      } else {
        state.durable_acked.erase(k);
      }
    }
    state.uncertain.clear();
    EXPECT_EQ(recovered->size(), state.durable_acked.size())
        << name << ": reconciled shadow diverges (seed=" << seed << ")";

    Manager resumed(dopts, /*start_lsn=*/report.last_lsn + 1);
    // Baseline checkpoint: the fresh WAL starts past the replayed history,
    // so the recovered state must be checkpointed before serving again.
    st = resumed.CheckpointNow(recovered.get());
    EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
    std::unique_ptr<Server> server2;
    st = Server::Adopt(std::move(recovered), sopt, &server2);
    if (!st.ok()) {
      ADD_FAILURE() << name << ": Adopt failed: " << st.ToString();
      outcome.ops = state.ops;
      return outcome;
    }
    server2->AttachDurability(&resumed);
    {
      // After reconciling uncertain keys, the shadow map must equal the
      // adopted table exactly; any later divergence is then known to come
      // from the resume phase rather than from recovery.
      auto d0 = server2->table()->Dump();
      EXPECT_EQ(d0.size(), state.durable_acked.size())
          << name << ": adopt-time divergence (seed=" << seed << ")";
      for (const auto& [k, v] : d0) {
        auto it = state.durable_acked.find(k);
        if (it == state.durable_acked.end()) {
          ADD_FAILURE() << name << ": adopt-time live-only key " << k
                        << " (seed=" << seed << ")";
        } else if (it->second != v) {
          ADD_FAILURE() << name << ": adopt-time value diff on key " << k
                        << " (seed=" << seed << ")";
        }
      }
    }
    RunRounds(server2.get(), kResumeRounds, &state);
    EXPECT_FALSE(server2->crashed()) << name << " (seed=" << seed << ")";
    EXPECT_TRUE(state.uncertain.empty())
        << name << ": fault-free resume left uncertain keys (seed=" << seed
        << ")";

    // Final differential check: live table == shadow map, exactly.
    auto dump = server2->table()->Dump();
    {
      // Structural invariants (notably global key uniqueness: a duplicate
      // would let FIND and Dump disagree about a key's value).
      Status vst = server2->table()->Validate();
      EXPECT_TRUE(vst.ok()) << name << ": " << vst.ToString()
                            << " (seed=" << seed << ")";
    }
    EXPECT_EQ(dump.size(), state.durable_acked.size())
        << name << " (seed=" << seed << ")";
    for (const auto& [k, v] : dump) {
      auto it = state.durable_acked.find(k);
      if (it == state.durable_acked.end()) {
        ADD_FAILURE() << name << ": live key " << k
                      << " not in shadow (seed=" << seed << ")";
        continue;
      }
      EXPECT_EQ(it->second, v) << name << ": key " << k << " (seed=" << seed
                               << ")";
    }
    // And the post-resume durable images reproduce the live table.
    std::istringstream cs2(resumed.checkpoints().durable_image());
    std::istringstream ws2(resumed.wal().durable_image());
    std::unique_ptr<Table> recovered2;
    durability::RecoveryReport report2;
    st = durability::Recover<uint32_t, uint32_t>(cs2, ws2, topt, &recovered2,
                                                 &report2);
    EXPECT_TRUE(st.ok()) << name << ": post-resume recovery: "
                         << st.ToString() << " (seed=" << seed << ")";
    if (st.ok()) {
      EXPECT_EQ(TableDigest(*recovered2), TableDigest(*server2->table()))
          << name << ": durable state diverges from live state (seed=" << seed
          << ")";
    }
  }

  outcome.ops = state.ops;
  outcome.data_loss_responses = state.data_loss_responses;
  return outcome;
}

int KillIndexFor(const std::string& point) {
  // WAL commits happen every batch, so let some history accumulate first;
  // checkpoint-protocol points fire roughly once per checkpoint.
  if (point.rfind("wal.commit", 0) == 0) return 20;
  if (point == "wal.truncate.after") return 1;  // needs two checkpoints
  return 2;                                     // third checkpoint
}

// The acceptance soak: every kill point + every crash-style I/O fault +
// a clean flush failure + a fault-free baseline, >= 50k ops in aggregate.
TEST(DurableServerChaosTest, KillPointAndIoFaultSoakNeverLosesAckedWrites) {
  const uint64_t base_seed = testing::ChaosSeedFromEnv(0xD1C0CC00u);

  struct Spec {
    std::string name;
    gpusim::FaultInjectorConfig cfg;
    bool has_fault = true;
    bool expect_crash = true;
  };
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "baseline";
    s.has_fault = false;
    s.expect_crash = false;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "io.clean_fail";
    s.cfg.io_fail_nth_flush = 7;
    s.expect_crash = false;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "io.short_write";
    s.cfg.io_short_write_at_flush = 30;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "io.torn_write";
    s.cfg.io_torn_write_at_flush = 30;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "io.bit_flip";
    s.cfg.io_bit_flip_at_flush = 30;
    specs.push_back(s);
  }
  for (size_t i = 0; i < durability::kNumKillPoints; ++i) {
    Spec s;
    s.name = std::string("kill.") + durability::kKillPointNames[i];
    s.cfg.kill_point_filter = durability::kKillPointNames[i];
    s.cfg.kill_at_point = KillIndexFor(durability::kKillPointNames[i]);
    specs.push_back(s);
  }

  uint64_t total_ops = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Spec& spec = specs[i];
    uint64_t seed = base_seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    ScenarioOutcome outcome =
        RunScenario(spec.name, spec.has_fault ? &spec.cfg : nullptr, seed);
    total_ops += outcome.ops;
    EXPECT_EQ(outcome.crashed, spec.expect_crash)
        << spec.name << ": crash expectation (seed=" << seed << ")";
    if (::testing::Test::HasFailure()) {
      MaybeDumpArtifacts(spec.name, seed, outcome);
    }
  }
  EXPECT_GE(total_ops, 50000u) << "soak did not reach the 50k-op target";
}

TEST(DurableServerChaosTest, SameSeedProducesIdenticalRecoveryDigests) {
  const uint64_t seed = testing::ChaosSeedFromEnv(0xFACEFEEDu);
  gpusim::FaultInjectorConfig cfg;
  cfg.kill_point_filter = "wal.commit.mid";
  cfg.kill_at_point = 12;
  ScenarioOutcome a = RunScenario("digest.first", &cfg, seed);
  ScenarioOutcome b = RunScenario("digest.second", &cfg, seed);
  EXPECT_TRUE(a.crashed) << "seed=" << seed;
  EXPECT_EQ(a.wal_image, b.wal_image) << "seed=" << seed;
  EXPECT_EQ(a.ckpt_image, b.ckpt_image) << "seed=" << seed;
  EXPECT_EQ(a.recovery_digest, b.recovery_digest) << "seed=" << seed;
  EXPECT_EQ(a.table_digest, b.table_digest) << "seed=" << seed;
}

// A clean (retryable) flush failure must surface as DataLoss on the acked
// response — the write is live but not yet durable — and the retained
// records must ride out on the next group commit.
TEST(DurableServerTest, CleanFlushFailureSurfacesDataLossThenRecovers) {
  gpusim::FaultInjectorConfig cfg;
  cfg.io_fail_nth_flush = 0;
  gpusim::ScopedFaultInjection scoped(cfg);

  gpusim::DeviceArena arena(0);
  gpusim::Grid grid(1);
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, {}, &server).ok());
  Manager manager;
  server->AttachDurability(&manager);

  Server::Request req;
  for (uint32_t k = 1; k <= 8; ++k) {
    req.ops.push_back(Server::Op{OpType::kInsert, k, k * 10});
  }
  uint64_t id1 = server->Submit(std::move(req));
  server->RunUntilIdle();
  Server::Response resp;
  ASSERT_TRUE(server->TakeResponse(id1, &resp));
  EXPECT_TRUE(resp.status.IsDataLoss()) << resp.status.ToString();
  EXPECT_TRUE(server->table()->Find(3));     // applied to the live table
  EXPECT_EQ(manager.wal().pending_records(), 8u);  // but retained, not durable
  EXPECT_EQ(manager.stats().commit_failures, 1u);

  // The next batch's group commit carries the retained records with it.
  Server::Request req2;
  req2.ops.push_back(Server::Op{OpType::kInsert, 100, 1000});
  uint64_t id2 = server->Submit(std::move(req2));
  server->RunUntilIdle();
  ASSERT_TRUE(server->TakeResponse(id2, &resp));
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(manager.wal().pending_records(), 0u);

  std::istringstream cs(manager.checkpoints().durable_image());
  std::istringstream ws(manager.wal().durable_image());
  std::unique_ptr<Table> recovered;
  durability::RecoveryReport report;
  Status rst =
      durability::Recover<uint32_t, uint32_t>(cs, ws, topt, &recovered,
                                              &report);
  ASSERT_TRUE(rst.ok()) << rst.ToString();
  EXPECT_EQ(recovered->size(), 9u);  // all 9 inserts made it to the log
  uint32_t v = 0;
  EXPECT_TRUE(recovered->Find(3, &v));
  EXPECT_EQ(v, 30u);
}

// One micro-batch of one-op requests insert(k), erase(k), insert(k'),
// erase(k'), ... on a multi-worker grid: the live table must end as the
// WAL replays it (every key erased), because the batch executes across
// requests in admission order, the order the WAL logs.
TEST(DurableServerTest, CoalescedInsertThenEraseLeavesWhatRecoveryRebuilds) {
  gpusim::DeviceArena arena(0);
  gpusim::Grid grid(4);
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  TableServerOptions sopt;
  constexpr uint32_t kKeys = 1000;
  sopt.queue_capacity = 2 * kKeys;
  sopt.max_batch_ops = 2 * kKeys;  // every request in one micro-batch
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, sopt, &server).ok());
  Manager manager;
  server->AttachDurability(&manager);

  std::vector<uint64_t> ids;
  for (uint32_t k = 1; k <= kKeys; ++k) {
    for (OpType type : {OpType::kInsert, OpType::kErase}) {
      Server::Request req;
      req.ops.push_back(Server::Op{type, k, k * 7});
      ids.push_back(server->Submit(std::move(req)));
    }
  }
  EXPECT_EQ(server->Step(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Server::Response resp;
    ASSERT_TRUE(server->TakeResponse(ids[i], &resp));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    if (i % 2 == 1) {
      EXPECT_EQ(resp.results[0].hit, 1u) << "erase " << i / 2;
    }
  }
  EXPECT_EQ(server->table()->size(), 0u);

  std::istringstream cs(manager.checkpoints().durable_image());
  std::istringstream ws(manager.wal().durable_image());
  std::unique_ptr<Table> recovered;
  durability::RecoveryReport report;
  Status rst =
      durability::Recover<uint32_t, uint32_t>(cs, ws, topt, &recovered,
                                              &report);
  ASSERT_TRUE(rst.ok()) << rst.ToString();
  EXPECT_EQ(TableDigest(*recovered), TableDigest(*server->table()));
}

// A crash before the group commit persists anything must leave no ack and
// an empty recovery: the client was never told the write happened.
TEST(DurableServerTest, CrashBeforeCommitNeverAcksAndRecoversEmpty) {
  gpusim::FaultInjectorConfig cfg;
  cfg.kill_point_filter = "wal.commit.before";
  cfg.kill_at_point = 0;
  gpusim::ScopedFaultInjection scoped(cfg);

  gpusim::DeviceArena arena(0);
  gpusim::Grid grid(1);
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Create(topt, {}, &server).ok());
  Manager manager;
  server->AttachDurability(&manager);

  Server::Request req;
  req.ops.push_back(Server::Op{OpType::kInsert, 42, 420});
  uint64_t id = server->Submit(std::move(req));
  server->RunUntilIdle();
  EXPECT_TRUE(server->crashed());
  Server::Response resp;
  EXPECT_FALSE(server->TakeResponse(id, &resp));  // the ack never left

  std::istringstream cs(manager.checkpoints().durable_image());
  std::istringstream ws(manager.wal().durable_image());
  std::unique_ptr<Table> recovered;
  durability::RecoveryReport report;
  Status rst =
      durability::Recover<uint32_t, uint32_t>(cs, ws, topt, &recovered,
                                              &report);
  ASSERT_TRUE(rst.ok()) << rst.ToString();
  EXPECT_EQ(recovered->size(), 0u);
  EXPECT_EQ(report.last_lsn, 0u);
}

}  // namespace
}  // namespace service
}  // namespace dycuckoo
