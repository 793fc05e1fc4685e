// ShardedTableServer: N independent fault domains behind one front door.
//
// A single TableServer is one blast radius: a crash-style durability
// fault, a poisoned WAL segment, or a wedged resize takes the whole
// keyspace down at once.  The sharded server partitions the keyspace
// across N shards — each with its OWN DynamicTable, admission queue,
// micro-batching lane, circuit breaker, scrub cursor, WAL segment, and
// checkpoint lineage — so a fault in shard k is invisible to every other
// shard: their queues keep draining, their group commits keep flushing,
// their breakers stay closed.
//
// Routing: ShardRouter (Mix64(key ^ router_seed) % N).  The routing
// triple (num_shards, router_seed, record widths) is recorded in a
// durability::ShardManifest; recovery validates it before replaying any
// segment, because a WAL replayed under different routing would re-home
// keys onto shards whose probes will never find them.
//
// The shard supervisor (ShardSupervisor) watches per-shard health between
// batches.  When a shard's durability fault domain dies (crash-style kill
// point or I/O fault under that shard's scope), the supervisor
// quarantines exactly that shard: requests touching its keys answer
// kUnavailable with machine-readable details — "shard", the shard id;
// "retry_after_ticks", when service could resume; "executed", whether the
// ops ran ("never" for rejections at the front door, "uncertain" for
// requests in flight when the shard died).  Transient overload is NOT a
// quarantine trigger — each shard's circuit breaker already degrades it
// to read-only in place; quarantine is reserved for integrity faults
// where the shard's durable lineage must be re-established.
//
// Self-healing, all on the one master VirtualClock (so runs are
// deterministic and replayable under DYCUCKOO_CHAOS_SEED): after a
// backoff the supervisor replays the quarantined shard's own checkpoint +
// WAL images (durability::Recover, with the shard's RecoverySource so the
// report names the segment), scrubs and validates the recovered table,
// starts a fresh durability lineage with a baseline checkpoint, and
// re-admits the shard through the circuit breaker's half-open probe path
// (BeginWriteProbation) — the healed shard earns traffic back with one
// probe write instead of taking full load cold.  Heal failures back off
// exponentially; exhausted attempts park the shard as kFailed (operator
// intervention).  Every successful heal bumps the shard's generation;
// responses minted by the pre-fault incarnation are fenced off by
// generation, so a request admitted before the fault is never
// acknowledged by state recovery has since rewritten.
//
// Elastic resharding: BeginReshard(2N) / BeginReshard(N/2) arms a
// service::Resharder that migrates the keyspace one hash-range chunk at a
// time while the deployment serves (two-generation routing in ShardRouter,
// copy -> cutover -> gc per chunk, every transition journaled).  The only
// write unavailability is the one chunk whose copy window is open; reads
// never block.  A crash mid-migration recovers through
// durability::RecoverShardedDeployment + AdoptRecoveredSharded, which
// resumes or rolls back deterministically.  The manifest's generation
// bumps when a migration finalizes.
//
// Front door: Submit routes a request in one pass over its ops, appending
// each op's position to its shard's portion of the request, staged for the
// shard's next micro-batch; the request keeps one join record holding its
// ops, into which every shard writes its ops' results in place.  Each
// shard gathers its portions' ops and serves them through
// TableServer::Serve — the same triage, coalesced launch, group commit and
// per-request fallback as a single server — and the portion statuses merge
// into the response at Harvest.
//
// Threading: Submit/TakeResponse are safe from any thread; Step runs on
// one serving thread.  Inside Step, the serving shards' micro-batches
// (TableServer::Serve: launch, WAL group commit, scrub slice, checkpoint
// slot) run concurrently as tasks on the tables' Grid, one task per shard,
// and their launches run inline on the worker that runs the task.  On a
// one-worker grid the shards therefore step one after another in shard
// order.  Supervision, heals, resharding and Harvest run on the serving
// thread after every shard task has finished.

#ifndef DYCUCKOO_SERVICE_SHARDED_SERVER_H_
#define DYCUCKOO_SERVICE_SHARDED_SERVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/sharded.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "gpusim/grid.h"
#include "gpusim/virtual_clock.h"
#include "service/resharder.h"
#include "service/shard_router.h"
#include "service/shard_supervisor.h"
#include "service/table_server.h"

namespace dycuckoo {
namespace service {

/// Front-door counters for the sharded deployment (per-shard counters
/// live on each shard's own ServerStats).
struct ShardedServerStats {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> subrequests{0};        // (request, shard) portions
  std::atomic<uint64_t> shard_rejections{0};   // ops refused at the front door
  std::atomic<uint64_t> subrequests_lost{0};   // in flight when a shard died
  std::atomic<uint64_t> reshard_blocked_writes{0};  // writes to the open chunk
  std::atomic<uint64_t> reshard_rollback_erased{0};  // partial copies swept
};

template <typename Key, typename Value>
class ShardedTableServer {
 public:
  using Shard = TableServer<Key, Value>;
  using Table = DynamicTable<Key, Value>;
  using Manager = durability::DurabilityManager<Key, Value>;
  using Op = typename Shard::Op;
  using OpType = typename Shard::OpType;
  using MixedOp = typename Shard::MixedOp;
  using OpResult = typename Shard::OpResult;
  using Request = typename Shard::Request;
  using Response = typename Shard::Response;

  struct Options {
    uint32_t num_shards = 4;

    /// Seed of the key->shard map.  Part of the deployment's durable
    /// identity (recorded in the manifest): changing it orphans every
    /// existing segment.
    uint64_t router_seed = 0xD1C0CC00F417D077ULL;

    /// Serving knobs applied to every shard.  The default deadline is
    /// applied ONCE at the sharded front door (on the master clock), not
    /// again per shard.
    TableServerOptions shard;

    durability::DurabilityOptions durability;

    /// Give every shard its own DurabilityManager (scope "shard-NNNNN/",
    /// segments named by durability::WalSegmentName et al.).  Without
    /// durability there is no crash detection and no self-heal.
    bool attach_durability = true;

    ShardSupervisorOptions supervisor;
  };

  /// Operator-facing snapshot of one shard's health.
  struct ShardHealth {
    uint32_t shard = 0;
    ShardState state = ShardState::kServing;
    uint64_t generation = 0;
    Status fault;                   // why quarantined (OK if never)
    Status last_heal_status;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    uint64_t table_size = 0;        // 0 while quarantined (table is down)
  };

  /// Builds a fresh N-shard deployment.  Each shard's table options are
  /// derived from `table_options`: capacity split N ways, hash seed
  /// decorrelated per shard, and the arena memory tag prefixed with the
  /// shard scope so alloc-fault campaigns can target one shard.
  static Status Create(const DyCuckooOptions& table_options,
                       const Options& options,
                       std::unique_ptr<ShardedTableServer>* out) {
    DYCUCKOO_RETURN_NOT_OK(ValidateOptions(options));
    std::unique_ptr<ShardedTableServer> srv(
        new ShardedTableServer(table_options, options));
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      ShardSlot& slot = srv->shards_[s];
      std::unique_ptr<Table> table;
      DYCUCKOO_RETURN_NOT_OK(Table::Create(slot.table_options, &table));
      DYCUCKOO_RETURN_NOT_OK(
          Shard::Adopt(std::move(table), options.shard, &slot.server));
      slot.server->UseExternalClock(&srv->clock_);
      if (options.attach_durability) {
        slot.manager = std::make_unique<Manager>(
            options.durability, /*start_lsn=*/1, durability::ShardScope(s));
        slot.server->AttachDurability(slot.manager.get());
      }
    }
    *out = std::move(srv);
    return Status::OK();
  }

  /// Builds a deployment from the per-shard outcomes of
  /// durability::RecoverAllShards — the restart path.  Shards that
  /// recovered cleanly serve immediately (fresh durability lineage seeded
  /// with a baseline checkpoint); shards whose recovery failed start
  /// quarantined with the classifying status, retaining their crash-time
  /// images (`images[s]`) so the supervisor's heal attempts can retry.
  static Status AdoptRecovered(
      std::vector<durability::ShardRecoveryOutcome<Key, Value>>* outcomes,
      const std::vector<durability::ShardImages>& images,
      const DyCuckooOptions& table_options, const Options& options,
      std::unique_ptr<ShardedTableServer>* out) {
    DYCUCKOO_RETURN_NOT_OK(ValidateOptions(options));
    if (outcomes->size() != options.num_shards ||
        images.size() != options.num_shards) {
      return Status::InvalidArgument(
          "AdoptRecovered: one outcome and one image pair per shard");
    }
    std::unique_ptr<ShardedTableServer> srv(
        new ShardedTableServer(table_options, options));
    const uint64_t now = srv->clock_.Now();
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      srv->AdoptSlot(s, &(*outcomes)[s], images[s], now);
    }
    *out = std::move(srv);
    return Status::OK();
  }

  /// The reshard-aware restart path: builds a deployment from
  /// durability::RecoverShardedDeployment's decision.
  ///
  ///   - no migration in flight: same as AdoptRecovered (manifest
  ///     generation restored);
  ///   - rolled back: the old generation's shards are adopted, a split's
  ///     never-cut-over new shards are discarded, and any partially
  ///     copied pairs are swept from the targets (logged erases) so the
  ///     deployment is exactly its pre-migration self;
  ///   - mid-reshard: every physical slot is adopted (mixed-generation
  ///     segment names preserved), the router's two-generation state and
  ///     cutover bitmap are rebuilt from the resolved journal, and the
  ///     migration resumes on the next Step — including straight into a
  ///     pause if a participant came back quarantined.
  static Status AdoptRecoveredSharded(
      durability::ShardedDeploymentRecovery<Key, Value>* rec,
      const std::vector<durability::ShardImages>& images,
      const DyCuckooOptions& table_options, const Options& options,
      std::unique_ptr<ShardedTableServer>* out) {
    DYCUCKOO_RETURN_NOT_OK(ValidateOptions(options));
    if (options.num_shards != rec->manifest.num_shards ||
        options.router_seed != rec->manifest.router_seed) {
      return Status::InvalidArgument(
          "AdoptRecoveredSharded: options do not match the recovered "
          "manifest's routing identity");
    }
    if (!rec->mid_reshard && !rec->rolled_back) {
      DYCUCKOO_RETURN_NOT_OK(AdoptRecovered(&rec->outcomes, images,
                                            table_options, options, out));
      (*out)->manifest_.generation = rec->manifest.generation;
      (*out)->manifest_image_ = (*out)->manifest_.Encode();
      return Status::OK();
    }
    const durability::ReshardJournal& j = rec->journal;
    const uint32_t physical = std::max(j.shards_from, j.shards_to);
    if (rec->outcomes.size() != physical || images.size() != physical) {
      return Status::InvalidArgument(
          "AdoptRecoveredSharded: one outcome and image pair per physical "
          "slot required");
    }
    std::unique_ptr<ShardedTableServer> srv(
        new ShardedTableServer(table_options, options));
    srv->manifest_.generation = rec->manifest.generation;
    srv->manifest_image_ = srv->manifest_.Encode();
    const uint64_t now = srv->clock_.Now();

    if (rec->rolled_back) {
      // Routing never switched: the old generation is the deployment.
      // A split's new shards are dropped wholesale (their only content
      // was never-cut-over copies); a merge's targets are swept below.
      for (uint32_t s = 0; s < j.shards_from; ++s) {
        srv->AdoptSlot(s, &rec->outcomes[s], images[s], now);
      }
      srv->RollbackSweep();
      *out = std::move(srv);
      return Status::OK();
    }

    // Mid-reshard resume: physical slots, two-generation routing.
    srv->supervisor_.GrowTo(physical);
    srv->shards_.resize(physical);
    for (uint32_t s = j.shards_from; s < physical; ++s) {
      srv->shards_[s].table_options =
          ShardTableOptions(table_options, s, j.shards_to);
      srv->shards_[s].segment = durability::WalSegmentName(s, j.shards_to);
    }
    for (uint32_t s = 0; s < physical; ++s) {
      srv->AdoptSlot(s, &rec->outcomes[s], images[s], now);
    }
    DYCUCKOO_RETURN_NOT_OK(
        srv->router_.BeginMigration(j.shards_to, j.num_chunks));
    for (uint32_t c = 0; c < j.num_chunks; ++c) {
      if (j.chunks[c] == durability::ReshardChunkState::kCutOver ||
          j.chunks[c] == durability::ReshardChunkState::kDone) {
        srv->router_.SetCutOver(c);
      }
    }
    srv->resharder_.Arm(rec->journal);
    *out = std::move(srv);
    return Status::OK();
  }

  ShardedTableServer(const ShardedTableServer&) = delete;
  ShardedTableServer& operator=(const ShardedTableServer&) = delete;

  // ---------------------------------------------------------------------
  // Client side (any thread).
  // ---------------------------------------------------------------------

  /// Admits a request, staging each op in its shard's portion of the
  /// request for the shard's next micro-batch.  Ops routed to a
  /// quarantined/failed shard are rejected up front (their portion of the
  /// response carries kUnavailable with "shard", "retry_after_ticks" and
  /// "executed"="never" details); the rest proceed normally.  Always
  /// assigns an id with a retrievable response.
  uint64_t Submit(Request request) {
    uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    common::MutexLock lock(mu_);
    const uint64_t now = clock_.Now();
    if (reshard_crashed_) {
      Complete(id, Response{Status::Unavailable(
                                "deployment dead: a reshard kill point "
                                "fired; restart and recover")
                                .WithDetail("executed", "never"),
                            {}, 0, now});
      return id;
    }
    if (request.deadline == 0 && options_.shard.default_deadline_ticks > 0) {
      request.deadline = now + options_.shard.default_deadline_ticks;
    }
    if (request.ops.empty()) {
      Complete(id, Response{Status::OK(), {}, 0, now});
      return id;
    }

    // One pass: each op joins its shard's portion of this request, or is
    // refused at the front door (quarantined shard, or a write into the
    // chunk whose migration window is open).  A portion opens at its
    // first admitted op.
    const uint32_t j = OpenJoin(id, request.ops.size());
    const bool migrating = resharder_.active();
    route_.resize(request.ops.size());
    router_.ShardsOf(
        request.ops.size(), [&](size_t i) { return request.ops[i].key; },
        route_.data());
    for (uint32_t i = 0; i < request.ops.size(); ++i) {
      ShardSlot& slot = shards_[route_[i]];
      if (slot.open_request == id && slot.open == Open::kQueued &&
          !migrating) {
        slot.positions.push_back(uint32_t{i});
      } else {
        RouteOp(request, i, j, migrating);
      }
    }
    for (uint32_t shard : opened_) {
      ShardSlot& slot = shards_[shard];
      Portion& p = slot.queued.back();
      p.count = static_cast<uint32_t>(slot.positions.size()) - p.begin;
    }
    opened_.clear();
    Join& join = joins_[j];
    stats_.subrequests.fetch_add(join.pending, std::memory_order_relaxed);
    if (!refused_ops_.empty()) RefuseAtFrontDoor(request, now, &join);
    if (join.pending == 0) {
      Complete(id, Finalize(&join, now));
      CloseJoin(j);
    } else {
      // The shards read their ops from here.
      join.ops = std::move(request.ops);
      ++live_joins_;
    }
    return id;
  }

  /// Retrieves (and removes) the response for `id`; false if not
  /// completed yet.
  bool TakeResponse(uint64_t id, Response* out) {
    common::MutexLock lock(responses_mu_);
    auto it = responses_.find(id);
    if (it == responses_.end()) return false;
    *out = std::move(it->second);
    responses_.erase(it);
    return true;
  }

  // ---------------------------------------------------------------------
  // Serving side (one thread).
  // ---------------------------------------------------------------------

  /// One serving round: a micro-batch step on every serving shard, then
  /// supervision (quarantine newly crashed shards, attempt due heals),
  /// then response harvesting.  Returns the number of front-door requests
  /// it completed.  Always advances the master clock, so heal backoffs
  /// elapse even on an idle deployment.
  uint64_t Step() {
    common::MutexLock lock(mu_);
    if (reshard_crashed_) return 0;
    clock_.Advance(1);
    StepShards();
    Supervise();
    if (resharder_.active()) {
      resharder_.Advance();
      if (resharder_.dead()) {
        // Simulated whole-process death: the deployment stops serving;
        // only RecoverShardedDeployment + AdoptRecoveredSharded continue
        // the story.
        reshard_crashed_ = true;
        return 0;
      }
    }
    const uint64_t finalized = Harvest();
    // Finalize only after harvesting: a merge retires slots, and a join
    // still referencing one (admitted before its chunk cut over) must
    // drain through the normal response path first.
    if (resharder_.complete() && ReshardRetiringDrained()) {
      FinalizeReshard();
    }
    return finalized;
  }

  /// Arms an online migration to `new_num_shards` — exactly double (split)
  /// or half (merge) the current count.  The deployment keeps serving
  /// while Step() drives the chunk pipeline; when every chunk is done the
  /// routing generation is finalized and the manifest generation bumps.
  Status BeginReshard(uint32_t new_num_shards) {
    common::MutexLock lock(mu_);
    if (reshard_crashed_) {
      return Status::Unavailable("deployment dead: restart and recover");
    }
    if (router_.migrating() || resharder_.active()) {
      return Status::InvalidArgument(
          "reshard: a migration is already in flight");
    }
    const uint32_t from = router_.num_shards();
    const bool split = new_num_shards == 2 * from;
    const bool merge = (from % 2 == 0) && new_num_shards == from / 2;
    if (!split && !merge) {
      return Status::InvalidArgument(
          "reshard: target shard count must be exactly double or half the "
          "current count");
    }
    for (uint32_t s = 0; s < from; ++s) {
      if (!supervisor_.serving(s)) {
        return Status::Unavailable(
            "reshard: shard " + std::to_string(s) +
            " is not serving; heal it before migrating");
      }
    }
    durability::ReshardJournal journal = durability::ReshardJournal::Make(
        manifest_.generation, options_.router_seed, from, new_num_shards);
    DYCUCKOO_RETURN_NOT_OK(
        router_.BeginMigration(new_num_shards, journal.num_chunks));
    if (split) {
      supervisor_.GrowTo(new_num_shards);
      for (uint32_t s = from; s < new_num_shards; ++s) {
        Status st = AddShardSlot(s, new_num_shards);
        if (!st.ok()) {
          router_.AbortMigration();
          shards_.resize(from);
          supervisor_.ShrinkTo(from);
          return st;
        }
      }
    }
    resharder_.Arm(std::move(journal));
    return Status::OK();
  }

  /// Operator override: schedule `shard`'s heal attempt for the next
  /// Step, ignoring the supervisor's backoff.  No-op unless quarantined.
  void RequestHealNow(uint32_t shard) {
    common::MutexLock lock(mu_);
    supervisor_.RequestHealNow(shard);
  }

  /// Steps until every front-door request has a response.  Terminates:
  /// each staged portion either completes on its (serving) shard or is
  /// resolved as lost when its shard leaves service.
  void RunUntilIdle() {
    for (;;) {
      {
        common::MutexLock lock(mu_);
        // A reshard kill point is simulated process death: in-flight
        // joins can never complete (recovery is the only continuation).
        if (live_joins_ == 0 || reshard_crashed_) return;
      }
      Step();
    }
  }

  // ---------------------------------------------------------------------
  // Introspection.
  // ---------------------------------------------------------------------

  uint32_t num_shards() const { return router_.num_shards(); }

  /// Gate for the heal path's post-recovery scrub: a freshly replayed
  /// image must scrub clean, because the scrub unpublishes corrupted
  /// slots — a dirty report waved through would bring the shard up
  /// silently missing acknowledged keys.  Static and public so the
  /// regression test can pin the policy without standing up a full
  /// deployment.
  static Status CheckHealScrub(const typename Table::ScrubReport& scrub) {
    if (scrub.corrupted_slots == 0) return Status::OK();
    return Status::DataLoss(
               "heal scrub found " + std::to_string(scrub.corrupted_slots) +
               " corrupted slot(s) in the freshly recovered image (" +
               std::to_string(scrub.corrupted_unattributable) +
               " unattributable); the durable state is suspect, retry "
               "the replay")
        .WithDetail("corruption",
                    scrub.corrupted_unattributable > 0 ? "unrepairable"
                                                       : "repairable");
  }
  /// Slot count including a split's still-migrating new shards (==
  /// num_shards() whenever no migration is in flight).
  uint32_t physical_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const Resharder<ShardedTableServer>& resharder() const {
    return resharder_;
  }
  bool reshard_crashed() const { return reshard_crashed_; }
  /// Durable images of the deployment's routing identity: the manifest
  /// and the migration journal ("" when no migration is armed) as a crash
  /// right now would leave them — the first two arguments of
  /// durability::RecoverShardedDeployment.
  const std::string& ManifestImage() const { return manifest_image_; }
  const std::string& JournalImage() const { return journal_image_; }
  const ShardRouter& router() const { return router_; }
  const ShardSupervisor& supervisor() const { return supervisor_; }
  const durability::ShardManifest& manifest() const { return manifest_; }
  gpusim::VirtualClock* clock() { return &clock_; }
  uint64_t now() const { return clock_.Now(); }
  const ShardedServerStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// The shard's serving front-end; null while quarantined/failed.
  Shard* shard_server(uint32_t shard) { return shards_[shard].server.get(); }
  Manager* shard_manager(uint32_t shard) {
    return shards_[shard].manager.get();
  }
  const DyCuckooOptions& shard_table_options(uint32_t shard) const {
    return shards_[shard].table_options;
  }

  /// The deterministic report of the shard's most recent recovery (from
  /// AdoptRecovered or the last heal attempt).
  const durability::RecoveryReport& last_heal_report(uint32_t shard) const {
    return shards_[shard].last_heal_report;
  }

  /// Every shard's durable byte images as they stand right now — what a
  /// full-process crash would leave behind for RecoverAllShards.
  std::vector<durability::ShardImages> DurableImages() const {
    std::vector<durability::ShardImages> images(physical_shards());
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      const ShardSlot& slot = shards_[s];
      if (slot.manager != nullptr) {
        images[s].checkpoint = slot.manager->checkpoints().durable_image();
        images[s].wal = slot.manager->wal().durable_image();
      } else {
        images[s] = slot.cold;
      }
    }
    return images;
  }

  /// Per-shard DyCuckooOptions, in shard order — the `options` argument
  /// RecoverAllShards needs to rebuild this deployment's tables.
  std::vector<DyCuckooOptions> ShardTableOptionsList() const {
    std::vector<DyCuckooOptions> opts;
    opts.reserve(physical_shards());
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      opts.push_back(shards_[s].table_options);
    }
    return opts;
  }

  std::vector<ShardHealth> Health() const {
    std::vector<ShardHealth> out(physical_shards());
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      ShardHealth& h = out[s];
      h.shard = s;
      h.state = supervisor_.state(s);
      h.generation = supervisor_.generation(s);
      h.fault = supervisor_.fault(s);
      h.last_heal_status = supervisor_.last_heal_status(s);
      if (shards_[s].server != nullptr) {
        h.breaker = shards_[s].server->breaker().state();
        h.table_size = shards_[s].server->table()->size();
      }
    }
    return out;
  }

  /// Live keys across serving shards (quarantined shards' keys exist in
  /// their durable images but are not countable here).
  uint64_t total_size() const {
    uint64_t n = 0;
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      if (supervisor_.serving(s) && shards_[s].server != nullptr) {
        n += shards_[s].server->table()->size();
      }
    }
    return n;
  }

 private:
  /// One front-door request's ops on one shard: the shard's unit of work.
  struct Portion {
    uint32_t join = 0;        // the request's record in joins_
    uint64_t generation = 0;  // the shard's generation at admission
    uint64_t id = 0;          // from the shard's AdmitPortion
    uint64_t deadline = 0;
    uint32_t begin = 0;       // first op in ShardSlot::positions
    uint32_t count = 0;
    // The outcome: set by the shard's Serve, or at admission if refused.
    uint32_t attempts = 0;
    Status status;
  };

  /// Where Submit stands with the request it is routing, per shard.
  enum class Open : uint8_t {
    kNone,        // serving, no portion yet
    kQueued,      // the portion is queued (the back of `queued`)
    kRefused,     // the shard's admission refused the portion
    kNotServing,  // quarantined or failed: refused at the front door
  };

  struct ShardSlot {
    DyCuckooOptions table_options;
    std::string segment;              // WAL segment name (creation-era count:
                                      // a split's new shards are "of-<to>")
    std::unique_ptr<Shard> server;    // null while quarantined/failed
    std::unique_ptr<Manager> manager;
    durability::ShardImages cold;     // crash-time images for heal retries
                                      // when no manager survived
    durability::RecoveryReport last_heal_report;

    // Front-door work staged for this shard, harvested every Step.
    std::vector<Portion> queued;       // admitted, in admission order
    std::vector<uint32_t> positions;   // their ops' indices in their
                                       // requests, contiguous per portion
    std::vector<Portion> refused;      // refused at the shard's admission
    std::vector<Op> ops;               // ServeShard's gathered batch
    size_t served = 0;                 // queued portions this Step took
    uint64_t open_request = 0;         // front-door id being routed
    Open open = Open::kNone;           // its portion on this shard
  };

  /// One front-door request in flight.  Shards write their ops' results
  /// into `results` in place; portion statuses merge in at Harvest, in
  /// shard order.
  struct Join {
    uint64_t id = 0;                  // the front-door response id
    std::vector<Op> ops;              // the request's ops
    uint32_t pending = 0;             // portions not yet harvested
    uint32_t attempts = 0;
    Status status;                    // highest-severity status so far
    std::vector<OpResult> results;
    std::vector<uint32_t> unavailable_shards;
  };

  ShardedTableServer(const DyCuckooOptions& base, const Options& options)
      : options_(options),
        base_table_options_(base),
        router_(options.num_shards, options.router_seed),
        supervisor_(options.num_shards, options.supervisor),
        manifest_(durability::ShardManifest::Make(
            options.num_shards, options.router_seed,
            static_cast<uint32_t>(sizeof(Key)),
            static_cast<uint32_t>(sizeof(Value)))),
        shards_(options.num_shards) {
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      shards_[s].table_options =
          ShardTableOptions(base, s, options.num_shards);
      shards_[s].segment =
          durability::WalSegmentName(s, options.num_shards);
    }
    manifest_image_ = manifest_.Encode();
  }

  static Status ValidateOptions(const Options& options) {
    if (options.num_shards == 0 || options.num_shards > 4096) {
      return Status::InvalidArgument(
          "sharded server: num_shards must be in [1, 4096]");
    }
    return Status::OK();
  }

  /// Derives shard `s`'s table options from the deployment-wide base:
  /// capacity split N ways (floored so tiny deployments stay viable),
  /// hash seed decorrelated per shard, memory tag prefixed with the shard
  /// scope for targeted alloc-fault campaigns.
  static DyCuckooOptions ShardTableOptions(const DyCuckooOptions& base,
                                           uint32_t shard, uint32_t n) {
    DyCuckooOptions o = base;
    o.memory_tag = durability::ShardScope(shard) + base.memory_tag;
    o.seed = Mix64(base.seed ^ (0x9E3779B97F4A7C15ULL * (shard + 1)));
    uint64_t per_shard = base.initial_capacity / n;
    o.initial_capacity = per_shard < 4096 ? 4096 : per_shard;
    return o;
  }

  /// Installs a recovered table as shard `s`'s serving incarnation: fresh
  /// durability lineage (starting after the recovered LSN) seeded with a
  /// baseline checkpoint, external clock, write probation.  On failure
  /// the slot is left untouched (the caller decides quarantine).
  Status BringUp(uint32_t s, std::unique_ptr<Table> table,
                 uint64_t start_lsn, ShardSlot* slot) {
    std::unique_ptr<Shard> server;
    DYCUCKOO_RETURN_NOT_OK(
        Shard::Adopt(std::move(table), options_.shard, &server));
    server->UseExternalClock(&clock_);
    std::unique_ptr<Manager> manager;
    if (options_.attach_durability) {
      manager = std::make_unique<Manager>(options_.durability, start_lsn,
                                          durability::ShardScope(s));
      server->AttachDurability(manager.get());
      // Baseline checkpoint: the new lineage alone must be able to
      // resurrect the shard — without it the old images would be the only
      // copy of the recovered state.
      Status st = manager->CheckpointNow(server->table());
      if (!st.ok()) return st;
      if (manager->dead()) {
        return Status::Unavailable(
            "shard bring-up: durability died during the baseline "
            "checkpoint");
      }
    }
    server->BeginWriteProbation();
    slot->server = std::move(server);
    slot->manager = std::move(manager);
    return Status::OK();
  }

  /// Installs one recovered outcome into slot `s`: serving via BringUp on
  /// success, quarantined with the crash-time images otherwise.
  void AdoptSlot(uint32_t s,
                 durability::ShardRecoveryOutcome<Key, Value>* outcome,
                 const durability::ShardImages& images, uint64_t now) {
    ShardSlot& slot = shards_[s];
    slot.last_heal_report = outcome->report;
    if (!outcome->status.ok() || outcome->table == nullptr) {
      slot.cold = images;
      supervisor_.Quarantine(s, now, outcome->status);
      return;
    }
    Status st = BringUp(s, std::move(outcome->table),
                        outcome->report.last_lsn + 1, &slot);
    if (!st.ok()) {
      // The shard's data recovered but its new lineage could not be
      // established (e.g. an injected fault during the baseline
      // checkpoint): quarantine it and let the heal path retry from the
      // crash-time images.
      slot.cold = images;
      supervisor_.Quarantine(s, now, st);
    }
  }

  // --- Elastic resharding (mu_ held) ------------------------------------

  friend class Resharder<ShardedTableServer>;

  // The Resharder's host surface.  All called under mu_ from Step().
  Table* ReshardTable(uint32_t s) { return shards_[s].server->table(); }
  Manager* ReshardManager(uint32_t s) { return shards_[s].manager.get(); }
  ShardRouter* ReshardRouter() { return &router_; }
  bool ReshardShardServing(uint32_t s) const {
    return supervisor_.serving(s) && shards_[s].server != nullptr;
  }
  bool ReshardShardQuiesced(uint32_t s) const {
    const ShardSlot& slot = shards_[s];
    if (slot.server == nullptr) return false;
    // Work still waiting for this incarnation (portions of an earlier
    // generation are answered as lost at Harvest).
    for (size_t k = slot.served; k < slot.queued.size(); ++k) {
      if (slot.queued[k].generation == supervisor_.generation(s)) {
        return false;
      }
    }
    return slot.manager == nullptr ||
           slot.manager->wal().pending_records() == 0;
  }
  void ReshardPersistJournal(std::string image) {
    journal_image_ = std::move(image);
  }

  /// Constructs a split's new shard slot `s` (empty table, fresh
  /// durability lineage under its own creation-era segment name).  The
  /// baseline checkpoint makes the slot's images self-contained: a crash
  /// before its first chunk copy recovers it as an empty shard.
  Status AddShardSlot(uint32_t s, uint32_t to) {
    if (shards_.size() <= s) shards_.resize(s + 1);
    ShardSlot& slot = shards_[s];
    slot.table_options = ShardTableOptions(base_table_options_, s, to);
    slot.segment = durability::WalSegmentName(s, to);
    std::unique_ptr<Table> table;
    DYCUCKOO_RETURN_NOT_OK(Table::Create(slot.table_options, &table));
    DYCUCKOO_RETURN_NOT_OK(
        Shard::Adopt(std::move(table), options_.shard, &slot.server));
    slot.server->UseExternalClock(&clock_);
    if (options_.attach_durability) {
      slot.manager = std::make_unique<Manager>(
          options_.durability, /*start_lsn=*/1, durability::ShardScope(s));
      slot.server->AttachDurability(slot.manager.get());
      DYCUCKOO_RETURN_NOT_OK(
          slot.manager->CheckpointNow(slot.server->table()));
    }
    return Status::OK();
  }

  /// Whether a complete migration may finalize now: no retiring slot
  /// (merge: slots >= to) still holds staged work.  Resizing shards_
  /// under a live portion would drop it, and its request would never be
  /// answered.
  bool ReshardRetiringDrained() const {
    const uint32_t to = router_.to_shards();
    for (uint32_t s = to; s < physical_shards(); ++s) {
      if (!shards_[s].queued.empty() || !shards_[s].refused.empty()) {
        return false;
      }
    }
    return true;
  }

  /// Every chunk is kDone: switch the deployment to the new generation.
  /// A merge retires the drained source slots; the manifest is reminted
  /// with the new shard count and a bumped generation, and the journal is
  /// cleared — after this the deployment is indistinguishable from one
  /// born at the new count (except for the generation).
  void FinalizeReshard() {
    const uint32_t to = router_.to_shards();
    const uint64_t new_generation = resharder_.journal().generation_from + 1;
    router_.FinishMigration();
    if (to < shards_.size()) {
      shards_.resize(to);
      supervisor_.ShrinkTo(to);
    }
    options_.num_shards = to;
    manifest_ = durability::ShardManifest::Make(
        to, options_.router_seed, static_cast<uint32_t>(sizeof(Key)),
        static_cast<uint32_t>(sizeof(Value)));
    manifest_.generation = new_generation;
    manifest_image_ = manifest_.Encode();
    resharder_.Disarm();
    DYCUCKOO_LOG(Info) << "reshard finalized: " << num_shards()
                       << " shards, manifest generation " << new_generation;
  }

  /// After a rolled-back migration: partially copied pairs may survive in
  /// target shards whose routing never switched.  Sweep every serving
  /// shard for keys the restored router homes elsewhere and erase them
  /// through the WAL, so durable state converges with routed state.
  void RollbackSweep() {
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      ShardSlot& slot = shards_[s];
      if (!supervisor_.serving(s) || slot.server == nullptr) continue;
      auto pairs = slot.server->table()->Dump();
      std::vector<Key> doomed;
      for (const auto& kv : pairs) {
        if (router_.ShardOf(kv.first) != s) doomed.push_back(kv.first);
      }
      if (doomed.empty()) continue;
      if (slot.manager != nullptr) {
        for (const Key& k : doomed) slot.manager->LogErase(k);
        if (!slot.manager->Commit().ok()) continue;  // heal path retries
      }
      Status erased = slot.server->table()->BulkErase(doomed);
      if (!erased.ok()) {
        // The keys are gone; only the post-erase resize failed.
        DYCUCKOO_LOG(Warning) << "rollback sweep of shard " << s
                              << ": post-erase maintenance failed: "
                              << erased.ToString();
      }
      stats_.reshard_rollback_erased.fetch_add(doomed.size(),
                                               std::memory_order_relaxed);
    }
  }

  /// The machine-readable rejection for a write landing in the one chunk
  /// whose migration window is open.  Same detail keys as quarantine
  /// rejections (shard / retry_after_ticks / executed) so clients retry
  /// through one code path, plus the chunk for observability.
  Status ReshardBlocked(uint32_t shard, uint32_t chunk, uint64_t now) const {
    const uint64_t retry =
        resharder_.paused()
            ? supervisor_.RetryAfterTicks(resharder_.paused_on(), now)
            : 1;
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " migrating chunk " + std::to_string(chunk) +
                               " (reshard write window)")
        .WithDetail("shard", std::to_string(shard))
        .WithDetail("retry_after_ticks", std::to_string(retry))
        .WithDetail("executed", "never")
        .WithDetail("reshard_chunk", std::to_string(chunk));
  }

  /// The machine-readable rejection for a non-serving shard.  `executed`
  /// is "never" (front-door rejection: no op ran) or "uncertain" (the
  /// portion was in flight when the shard died: ops may have
  /// partially applied; idempotent re-execution after retry-after is
  /// safe).
  Status ShardUnavailable(uint32_t shard, uint64_t now,
                          const char* executed) const {
    const ShardState state = supervisor_.state(shard);
    const Status& fault = supervisor_.fault(shard);
    std::string msg = "shard " + std::to_string(shard) + " " +
                      ShardStateName(state);
    if (!fault.ok()) msg += ": " + fault.message();
    return Status::Unavailable(std::move(msg))
        .WithDetail("shard", std::to_string(shard))
        .WithDetail("retry_after_ticks",
                    std::to_string(supervisor_.RetryAfterTicks(shard, now)))
        .WithDetail("executed", executed);
  }

  /// Severity order for merging portion statuses into one response status:
  /// DataLoss (acked bytes at risk) > Unavailable (a shard refused) >
  /// any other error > OK.  Ties keep the earliest shard's status, so the
  /// merge is deterministic.
  static int Severity(const Status& s) {
    if (s.ok()) return 0;
    if (s.IsDataLoss()) return 3;
    if (s.IsUnavailable()) return 2;
    return 1;
  }

  void MergeStatus(Join* join, Status st, uint32_t shard) {
    if (st.IsUnavailable()) join->unavailable_shards.push_back(shard);
    if (Severity(st) > Severity(join->status)) join->status = std::move(st);
  }

  Response Finalize(Join* join, uint64_t now) {
    Response resp;
    resp.status = std::move(join->status);
    if (join->unavailable_shards.size() > 1) {
      std::string csv;
      for (uint32_t s : join->unavailable_shards) {
        if (!csv.empty()) csv += ",";
        csv += std::to_string(s);
      }
      resp.status = resp.status.WithDetail("unavailable_shards", csv);
    }
    resp.results = std::move(join->results);
    resp.attempts = join->attempts;
    resp.completed_at = now;
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    return resp;
  }

  void Complete(uint64_t id, Response response) {
    common::MutexLock lock(responses_mu_);
    responses_.emplace(id, std::move(response));
  }

  // --- Supervision (mu_ held) -------------------------------------------

  void Supervise() {
    const uint64_t now = clock_.Now();
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      ShardSlot& slot = shards_[s];
      if (supervisor_.serving(s) && slot.server != nullptr &&
          slot.server->crashed()) {
        DYCUCKOO_LOG(Warning)
            << "shard " << s << " crashed (durability fault domain dead); "
            << "quarantining";
        supervisor_.Quarantine(
            s, now,
            Status::Unavailable("shard " + std::to_string(s) +
                                " durability fault domain died"));
        // The dead incarnation never acknowledges again; its durable
        // images stay on slot.manager for the heal path.
        slot.server.reset();
      }
      if (supervisor_.serving(s) && slot.server != nullptr &&
          slot.server->integrity_compromised()) {
        // The shard's scrubber found corruption it could not repair from
        // durable state: the in-memory table can no longer be trusted, but
        // the durable images can (acks only ever followed group commits).
        // Quarantine and rebuild from them — the same heal path as a
        // crash, with a DataLoss fault so operators and clients can tell
        // "memory corrupted" from "process died".
        DYCUCKOO_LOG(Error)
            << "shard " << s
            << " has unrepairable silent corruption; quarantining for "
               "rebuild from durable state";
        supervisor_.Quarantine(
            s, now,
            Status::DataLoss("shard " + std::to_string(s) +
                             " in-memory corruption unrepairable by the "
                             "online scrubber")
                .WithDetail("corruption", "unrepairable")
                .WithDetail("shard", std::to_string(s)));
        slot.server.reset();
      }
      if (supervisor_.HealDue(s, now)) AttemptHeal(s, now);
    }
  }

  void AttemptHeal(uint32_t s, uint64_t now) {
    ShardSlot& slot = shards_[s];
    // The crash-time images, read in place: from the dead incarnation's
    // manager, or the cold images a failed AdoptRecovered left behind.
    const bool live = slot.manager != nullptr;
    durability::RecoverySource source;
    source.shard_id = s;
    source.segment = slot.segment;
    std::unique_ptr<Table> table;
    durability::RecoveryReport report;
    Status st = durability::Recover<Key, Value>(
        live ? slot.manager->checkpoints().durable_image()
             : slot.cold.checkpoint,
        live ? slot.manager->wal().durable_image() : slot.cold.wal,
        slot.table_options, &table, &report, source);
    slot.last_heal_report = report;
    if (!st.ok()) {
      DYCUCKOO_LOG(Warning) << "shard " << s << " heal: recovery failed: "
                            << st.ToString();
      supervisor_.OnHealFailure(s, now, std::move(st));
      return;
    }

    // Scrub + validate before the shard is allowed near traffic: a
    // recovered table with a placement violation would fail reads.
    //
    // The report is load-bearing ([[nodiscard]] caught this being
    // dropped): the scrub UNPUBLISHES corrupted slots, so waving a
    // dirty report through would bring up a shard silently missing
    // acknowledged keys.  A corrupt freshly-replayed image means the
    // durable state itself is suspect — fail the heal and retry the
    // replay under backoff instead of serving holes.
    st = CheckHealScrub(table->ScrubAll());
    if (!st.ok()) {
      DYCUCKOO_LOG(Warning) << "shard " << s
                            << " heal: recovered image is corrupt: "
                            << st.ToString();
      supervisor_.OnHealFailure(s, now, std::move(st));
      return;
    }
    st = table->Validate();
    if (!st.ok()) {
      DYCUCKOO_LOG(Warning) << "shard " << s
                            << " heal: recovered table failed validation: "
                            << st.ToString();
      supervisor_.OnHealFailure(s, now, std::move(st));
      return;
    }

    st = BringUp(s, std::move(table), report.last_lsn + 1, &slot);
    if (!st.ok()) {
      // Kill points / I-O faults can fire during the baseline checkpoint
      // of the new lineage; the old images are untouched, so the next
      // attempt retries from the same state.
      DYCUCKOO_LOG(Warning) << "shard " << s << " heal: bring-up failed: "
                            << st.ToString();
      supervisor_.OnHealFailure(s, now, std::move(st));
      return;
    }
    slot.cold = durability::ShardImages{};  // the new lineage owns state now
    supervisor_.OnHealSuccess(s, now);
    DYCUCKOO_LOG(Info) << "shard " << s << " healed: "
                       << report.ToString();
  }

  // --- Front door and shard steps (mu_ held) ----------------------------

  /// A join record for request `id` with `num_ops` default results.
  uint32_t OpenJoin(uint64_t id, size_t num_ops) {
    uint32_t j;
    if (free_joins_.empty()) {
      j = static_cast<uint32_t>(joins_.size());
      joins_.emplace_back();
    } else {
      j = free_joins_.back();
      free_joins_.pop_back();
    }
    joins_[j].id = id;
    joins_[j].results.resize(num_ops);
    return j;
  }

  void CloseJoin(uint32_t j) {
    joins_[j] = Join{};
    free_joins_.push_back(j);
  }

  /// Submit's routing of op `i` of `request` (front-door id `id`, join
  /// `join`) off the fast path: the first op on a shard, refusals at the
  /// front door, and every op while a migration is in flight.
  void RouteOp(const Request& request, uint32_t i, uint32_t join,
               bool migrating) {
    const Op& op = request.ops[i];
    const uint32_t shard = route_[i];
    ShardSlot& slot = shards_[shard];
    const uint64_t id = joins_[join].id;
    if (slot.open_request != id) {
      slot.open_request = id;
      slot.open = supervisor_.serving(shard) ? Open::kNone : Open::kNotServing;
    }
    // The one chunk whose copy window is open rejects writes (reads stay
    // available): a write applied to the source after its copy was taken
    // would be silently dropped at cutover.
    if (slot.open == Open::kNotServing ||
        (migrating && op.type != OpType::kFind &&
         resharder_.BlocksWrites(router_.ChunkOf(op.key)))) {
      refused_ops_.emplace_back(shard, i);
      return;
    }
    if (slot.open == Open::kNone) OpenPortion(shard, join, request.deadline);
    if (slot.open == Open::kQueued) slot.positions.push_back(uint32_t{i});
  }

  /// Opens the routed request's portion on `shard` through the shard's
  /// admission: queued for its next Steps, or refused (deadline passed,
  /// queue at capacity) and answered at the next Harvest.
  void OpenPortion(uint32_t shard, uint32_t join, uint64_t deadline) {
    ShardSlot& slot = shards_[shard];
    uint64_t id = 0;
    Status st = slot.server->AdmitPortion(deadline, slot.queued.size(), &id);
    Portion& p =
        st.ok() ? slot.queued.emplace_back() : slot.refused.emplace_back();
    p.join = join;
    p.generation = supervisor_.generation(shard);
    p.id = id;
    p.deadline = deadline;
    p.begin = static_cast<uint32_t>(slot.positions.size());
    ++joins_[join].pending;
    if (st.ok()) {
      slot.open = Open::kQueued;
      opened_.push_back(shard);
    } else {
      slot.open = Open::kRefused;
      p.status = std::move(st);
    }
  }

  /// Merges the front-door refusals recorded in refused_ops_ into `join`,
  /// in shard order: one status per quarantined shard, one per blocked
  /// write.
  void RefuseAtFrontDoor(const Request& request, uint64_t now, Join* join) {
    std::stable_sort(refused_ops_.begin(), refused_ops_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t k = 0; k < refused_ops_.size();) {
      const uint32_t shard = refused_ops_[k].first;
      size_t end = k;
      while (end < refused_ops_.size() && refused_ops_[end].first == shard) {
        ++end;
      }
      if (!supervisor_.serving(shard)) {
        stats_.shard_rejections.fetch_add(end - k, std::memory_order_relaxed);
        MergeStatus(join, ShardUnavailable(shard, now, "never"), shard);
      } else {
        for (size_t m = k; m < end; ++m) {
          const uint32_t chunk =
              router_.ChunkOf(request.ops[refused_ops_[m].second].key);
          stats_.reshard_blocked_writes.fetch_add(1,
                                                  std::memory_order_relaxed);
          stats_.shard_rejections.fetch_add(1, std::memory_order_relaxed);
          MergeStatus(join, ReshardBlocked(shard, chunk, now), shard);
        }
      }
      k = end;
    }
    refused_ops_.clear();
  }

  /// The grid the shard tables launch on.
  gpusim::Grid* grid() const {
    return base_table_options_.grid != nullptr ? base_table_options_.grid
                                               : gpusim::Grid::Global();
  }

  /// One micro-batch on every serving shard.  The shards' Serves overlap
  /// as tasks on the grid (a lone shard runs on this thread, so its
  /// launches keep every worker); the master clock is installed once for
  /// all of them.
  void StepShards() {
    stepping_.clear();
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      if (supervisor_.serving(s) && shards_[s].server != nullptr) {
        stepping_.push_back(s);
      }
    }
    gpusim::ScopedVirtualClock scoped(&clock_);
    if (stepping_.size() == 1) {
      ServeShard(stepping_[0]);
      return;
    }
    grid()->RunTasks(stepping_.size(),
                     [this](uint64_t i) { ServeShard(stepping_[i]); });
  }

  /// Serves shard `s`'s queued portions, in admission order, through its
  /// TableServer.  Runs on a grid worker: it writes only this shard's
  /// slot and the results of its own portions' joins.
  void ServeShard(uint32_t s) {
    ShardSlot& slot = shards_[s];
    // Gathered here, off the serving thread; the reserve keeps each
    // unit's span valid while later units are gathered.
    slot.ops.clear();
    slot.ops.reserve(slot.positions.size());
    size_t next = 0;
    slot.server->Serve(
        [&](typename Shard::Unit* unit) {
          if (next == slot.queued.size()) return false;
          const Portion& p = slot.queued[next++];
          const std::vector<Op>& ops = joins_[p.join].ops;
          const size_t at = slot.ops.size();
          for (uint32_t k = 0; k < p.count; ++k) {
            slot.ops.push_back(ops[slot.positions[p.begin + k]]);
          }
          *unit = typename Shard::Unit{
              p.id, p.deadline,
              std::span<const Op>(slot.ops).subspan(at, p.count)};
          return true;
        },
        [&](size_t i, Status status, uint32_t attempts,
            std::span<const MixedOp> results) {
          Portion& p = slot.queued[i];
          p.status = std::move(status);
          p.attempts = attempts;
          OpResult* out = joins_[p.join].results.data();
          for (size_t k = 0; k < results.size(); ++k) {
            out[slot.positions[p.begin + k]] =
                OpResult{results[k].hit, results[k].value};
          }
        });
    slot.served = next;
  }

  // --- Harvest (mu_ held) -----------------------------------------------

  /// Merges every answered portion into its join, shard by shard, and
  /// completes the requests whose last portion that was.  A portion whose
  /// shard died or was rebuilt since admission is answered "uncertain":
  /// its ops may or may not have applied before the fault.
  uint64_t Harvest() {
    const uint64_t now = clock_.Now();
    uint64_t finalized = 0;
    for (uint32_t s = 0; s < physical_shards(); ++s) {
      ShardSlot& slot = shards_[s];
      const bool serving = supervisor_.serving(s) && slot.server != nullptr;
      const uint64_t generation = supervisor_.generation(s);
      for (Portion& p : slot.refused) {
        finalized += Resolve(s, !serving || p.generation != generation, &p,
                             now);
      }
      slot.refused.clear();
      // Resolve the answered (the first `served`: a serving shard answers
      // every unit its Serve took) and the lost; keep the rest queued,
      // with their positions moved down to the front.
      size_t kept = 0;
      uint32_t kept_ops = 0;
      for (size_t k = 0; k < slot.queued.size(); ++k) {
        Portion& p = slot.queued[k];
        const bool lost = !serving || p.generation != generation;
        if (lost || k < slot.served) {
          finalized += Resolve(s, lost, &p, now);
          continue;
        }
        std::copy_n(slot.positions.begin() + p.begin, p.count,
                    slot.positions.begin() + kept_ops);
        p.begin = kept_ops;
        kept_ops += p.count;
        if (kept != k) slot.queued[kept] = std::move(p);
        ++kept;
      }
      slot.queued.resize(kept);
      slot.positions.resize(kept_ops);
      slot.served = 0;
    }
    return finalized;
  }

  /// Merges one portion's outcome into its join; completes the request
  /// when it was the last.  Returns the requests completed (0 or 1).
  uint64_t Resolve(uint32_t shard, bool lost, Portion* p, uint64_t now) {
    Join& join = joins_[p->join];
    if (lost) {
      stats_.subrequests_lost.fetch_add(1, std::memory_order_relaxed);
      // Results written before the shard died are not answers.
      const ShardSlot& slot = shards_[shard];
      for (uint32_t k = 0; k < p->count; ++k) {
        join.results[slot.positions[p->begin + k]] = OpResult{};
      }
      MergeStatus(&join, ShardUnavailable(shard, now, "uncertain"), shard);
    } else {
      if (p->attempts > join.attempts) join.attempts = p->attempts;
      if (!p->status.ok()) MergeStatus(&join, std::move(p->status), shard);
    }
    if (--join.pending > 0) return 0;
    Complete(join.id, Finalize(&join, now));
    CloseJoin(p->join);
    --live_joins_;
    return 1;
  }

  Options options_;
  DyCuckooOptions base_table_options_;  // deployment-wide base; splits
                                        // derive their new shards from it
  ShardRouter router_;
  ShardSupervisor supervisor_;
  durability::ShardManifest manifest_;
  gpusim::VirtualClock clock_;
  std::vector<ShardSlot> shards_;
  ShardedServerStats stats_;
  Resharder<ShardedTableServer> resharder_{this};
  std::string manifest_image_;  // manifest as durably recorded
  std::string journal_image_;   // migration journal ("" while idle)
  bool reshard_crashed_ = false;  // a reshard.* kill point fired

  // mu_ guards shards_, supervisor_, the join records, and clock_.  These
  // members carry no GUARDED_BY attribute: the Resharder<> template calls
  // back into this class with mu_ held transitively, and attributing them
  // would force REQUIRES(mu_) through the template's callback surface.
  // docs/analysis.md ("Static layer") records this exemption.  While the
  // shard tasks run, Step holds mu_ for them.
  common::Mutex mu_;
  std::vector<Join> joins_;           // indexed by Portion::join
  std::vector<uint32_t> free_joins_;  // free records of joins_
  uint64_t live_joins_ = 0;           // requests awaiting a portion
  std::vector<std::pair<uint32_t, uint32_t>> refused_ops_;  // Submit's
                                      // front-door refusals: (shard, op)
  std::vector<uint32_t> opened_;      // Submit's queued portions' shards
  std::vector<uint32_t> route_;       // Submit's shard of each op
  std::vector<uint32_t> stepping_;    // the shards StepShards serves

  std::atomic<uint64_t> next_id_{1};
  mutable common::Mutex responses_mu_;
  std::unordered_map<uint64_t, Response> responses_ GUARDED_BY(responses_mu_);
};

/// The paper's primary 4-byte configuration, sharded.
using DyCuckooShardedServer = ShardedTableServer<uint32_t, uint32_t>;

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_SHARDED_SERVER_H_
