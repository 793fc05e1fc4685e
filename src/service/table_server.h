// TableServer: the overload-safe serving front-end over DynamicTable.
//
// Callers hitting DynamicTable::Bulk* directly get no admission control,
// no deadlines, and no retry policy — a hot resize or an injected fault
// stalls or fails them outright.  The TableServer wraps the table with the
// contract a production service needs:
//
//  * Bounded admission (AdmissionQueue): Submit never buffers without
//    bound; a full queue is an explicit kResourceExhausted.
//  * Micro-batching: queued requests are coalesced (up to max_batch_ops
//    operations) into one mixed grid launch per Step — more only where
//    requests share keys (see Consistency) — amortizing launch overhead
//    exactly like the paper's batched execution model.
//  * Deadlines on the deterministic virtual clock: a request carries an
//    absolute tick deadline; expiry yields kDeadlineExceeded at admission,
//    at dequeue, or between retry attempts — never a silent drop and never
//    an unbounded stall.  An in-flight grid launch is not preempted
//    (kernels run to completion), matching GPU semantics.
//  * Retry with seeded exponential backoff + jitter (RetryPolicy) for
//    transient failures; backoff advances the virtual clock, so deadlines
//    keep ticking while a request waits.
//  * A circuit breaker (CircuitBreaker) that flips the server into
//    read-only degraded mode after consecutive terminal write failures and
//    auto-recovers via a probe write after a cooldown.
//  * An online invariant scrubber (OnlineScrubber) walking a bounded slice
//    of buckets between batches, repairing placement violations and
//    triggering bounds maintenance when theta drifts outside [alpha, beta].
//
// Side-effect contract per response status (what a shadow-map test may
// assume):
//   kResourceExhausted / kUnavailable .... request never executed
//   kDeadlineExceeded with attempts == 0 . request never executed
//   kDeadlineExceeded with attempts > 0 .. earlier attempts may have
//                                          partially applied (idempotent
//                                          upserts/erases: re-execution safe)
//   kInsertionFailure / kOutOfMemory ..... partially applied; failed count
//                                          refers to this request's keys
//   kDataLoss ............................ applied to the table but NOT
//                                          durable (group-commit flush
//                                          failed); lost if the process
//                                          dies before a later flush
//   OK ................................... fully applied (and durable when
//                                          a DurabilityManager is attached:
//                                          the ack is released only after
//                                          the WAL group commit)
//
// Consistency (see docs/robustness.md "Consistency guarantees"): requests
// coalesced into one micro-batch execute concurrently in a single mixed
// grid launch, and the table's FIND-under-INSERT guarantee carries through
// to responses: a key whose INSERT this server acknowledged (response OK
// or kDataLoss) in an *earlier* batch, and whose DELETE it has not, is hit
// by every subsequent FIND — even while inserts coalesced into the same
// micro-batch displace pairs around it (the eviction handoff ring keeps
// displaced victims reader-visible at every instant).  Across requests a
// micro-batch keeps admission order: a request that shares a key with an
// earlier request of the current launch, and either one writes it, goes
// to the next launch, so a FIND sees an INSERT admitted before it.  Ops
// of one request run concurrently and may observe each other either way.
// Value reads are last-writer-wins when an upsert of a key races a
// displacement of that key within one launch; membership is always
// linearizable.
//
// Durability: AttachDurability() hooks a durability::DurabilityManager in.
// Each micro-batch's acknowledged writes are appended to the WAL and
// flushed with ONE group commit before any of the batch's responses are
// completed; the between-batch slot additionally takes incremental
// checkpoints.  A crash-style injected fault marks the server crashed():
// it stops executing and never acknowledges in-flight requests — exactly
// what a real process death would do.  Recovery is durability::Recover().
//
// Threading: Submit/TakeResponse are safe from any thread; Step (and
// everything it drives) runs on one serving thread, mirroring the one-
// host-thread-per-table contract of DynamicTable.  Behind a
// ShardedTableServer the shard's serving thread is a grid worker: the
// sharded Step runs each shard's Serve (the micro-batch, its WAL group
// commit, the scrub slice and the checkpoint slot) as a task on the
// tables' Grid, one task per shard, and everything else on its own
// serving thread.

#ifndef DYCUCKOO_SERVICE_TABLE_SERVER_H_
#define DYCUCKOO_SERVICE_TABLE_SERVER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counter_set.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/manager.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/options.h"
#include "gpusim/virtual_clock.h"
#include "service/admission_queue.h"
#include "service/circuit_breaker.h"
#include "service/retry_policy.h"
#include "service/scrubber.h"

namespace dycuckoo {
namespace service {

// The server counter set, declared once: X(field) per counter, in member
// order.
#define DYCUCKOO_SERVER_STATS(X)                                             \
  X(submitted)                                                               \
  X(admitted)                                                                \
  X(rejected_queue_full)                                                     \
  X(rejected_deadline) /* at submit, dequeue or retry */                     \
  X(rejected_unavailable)                                                    \
  X(completed_ok)                                                            \
  X(completed_error)     /* terminal non-OK executions */                    \
  X(batch_launches)      /* coalesced BulkExecute calls */                   \
  X(coalesced_fallbacks) /* batches re-run per request */                    \
  X(retries)             /* re-executions beyond first */                    \
  X(backoff_ticks_slept)                                                     \
  X(scrub_steps)                                                             \
  X(scrub_resizes) /* bounds repairs it triggered */                         \
  /* Silent-corruption escalation (see docs/robustness.md): slots whose  */  \
  /* integrity tag mismatched, how many were resolved from durable state */  \
  /* (re-published from the WAL/checkpoint, or confirmed erased), and    */  \
  /* how many could not be — each of the latter trips the breaker and    */  \
  /* sets the sticky integrity_compromised() flag.                       */  \
  X(scrub_corruption_detected)                                               \
  X(scrub_corruption_repaired)                                               \
  X(scrub_corruption_unrepairable)

/// Server-side counters (all monotonic; Capture() for a coherent-enough
/// snapshot — same relaxed contract as TableStats).
struct ServerStats {
  DYCUCKOO_SERVER_STATS(DYCUCKOO_COUNTER_ATOMIC)

  struct Snapshot {
    DYCUCKOO_SERVER_STATS(DYCUCKOO_COUNTER_VALUE)

    /// `field=value` pairs in declaration order, space-separated.
    std::string ToString() const {
      std::ostringstream os;
      const char* sep = "";
      DYCUCKOO_SERVER_STATS(DYCUCKOO_COUNTER_PRINT)
      return os.str();
    }
  };

  Snapshot Capture() const {
    Snapshot s;
    DYCUCKOO_SERVER_STATS(DYCUCKOO_COUNTER_CAPTURE)
    return s;
  }
};

/// Serving-layer knobs (all bounds are hard, never best-effort).
struct TableServerOptions {
  /// Maximum queued (admitted, not yet executed) requests.
  uint64_t queue_capacity = 256;

  /// Operation budget per micro-batch: Step dequeues whole requests until
  /// their combined op count reaches this (a single oversized request
  /// still runs, alone).
  uint64_t max_batch_ops = 4096;

  /// Default deadline as a relative tick budget applied at Submit when the
  /// request carries none.  0 means no default (wait forever).
  uint64_t default_deadline_ticks = 0;

  RetryPolicy retry;
  CircuitBreakerOptions breaker;

  /// Buckets verified by the online scrubber after each batch (0 disables
  /// inline scrubbing).
  uint64_t scrub_buckets_per_step = 0;

  /// Let a scrub slice that finds theta outside [alpha, beta] trigger
  /// ResizeToBounds().
  bool resize_on_scrub_violation = true;
};

template <typename Key, typename Value>
class TableServer {
 public:
  using Table = DynamicTable<Key, Value>;
  using MixedOp = typename Table::MixedOp;
  using OpType = typename Table::MixedOp::Type;

  /// One operation of a request.
  struct Op {
    OpType type = OpType::kFind;
    Key key{};
    Value value{};
  };

  /// Per-op outcome (valid only when the response status is OK or a
  /// partial-failure code; see the side-effect contract above).
  struct OpResult {
    uint8_t hit = 0;   ///< find located / erase removed the key
    Value value{};     ///< find output
  };

  struct Request {
    std::vector<Op> ops;
    /// Absolute virtual-clock deadline; 0 means none (or the server
    /// default, applied at Submit).
    uint64_t deadline = 0;
  };

  struct Response {
    Status status;
    std::vector<OpResult> results;  ///< one per op when executed
    uint32_t attempts = 0;          ///< executions of this request's ops
    uint64_t completed_at = 0;      ///< virtual time of completion
  };

  /// Builds a server owning a fresh table.
  static Status Create(const DyCuckooOptions& table_options,
                       const TableServerOptions& server_options,
                       std::unique_ptr<TableServer>* out) {
    std::unique_ptr<Table> table;
    DYCUCKOO_RETURN_NOT_OK(Table::Create(table_options, &table));
    out->reset(new TableServer(std::move(table), server_options));
    return Status::OK();
  }

  /// Builds a server around an existing table — the resumption path after
  /// durability::Recover() hands back the recovered state.
  static Status Adopt(std::unique_ptr<Table> table,
                      const TableServerOptions& server_options,
                      std::unique_ptr<TableServer>* out) {
    if (table == nullptr) {
      return Status::InvalidArgument("Adopt: table must not be null");
    }
    out->reset(new TableServer(std::move(table), server_options));
    return Status::OK();
  }

  /// Attaches (or detaches, with nullptr) the durability manager.  Not
  /// owned; must outlive the server.  Attach before serving traffic —
  /// writes acknowledged earlier are not retroactively logged.
  void AttachDurability(durability::DurabilityManager<Key, Value>* manager) {
    durability_ = manager;
  }

  /// True once the durability layer took a crash-style injected fault: the
  /// server stops executing and never acknowledges in-flight requests.
  bool crashed() const { return durability_ != nullptr && durability_->dead(); }

  /// Sticky: true once a scrub slice found corruption this server could not
  /// repair from durable state (no durability attached, the key is absent
  /// from / unreadable in the durable images, or the corruption destroyed
  /// the key so there is nothing to look up).  The write path is already
  /// breaker-open by the time this reads true; a supervisor should
  /// quarantine the shard and rebuild it from durability::Recover().
  bool integrity_compromised() const { return integrity_compromised_; }

  /// Drives this server from a caller-owned clock instead of its own —
  /// how a sharded deployment keeps every shard on ONE virtual timeline
  /// (deadlines, breaker cooldowns, and checkpoint cadence stay globally
  /// comparable).  Call before serving traffic; `clock` must outlive the
  /// server.  Passing nullptr reverts to the internal clock.
  void UseExternalClock(gpusim::VirtualClock* clock) {
    clock_ = clock != nullptr ? clock : &own_clock_;
  }

  /// Puts the write path into half-open probation: the next write is a
  /// single probe through the circuit breaker, and only its success
  /// restores full write admission.  The re-admission path for a shard
  /// that just self-healed from recovery.
  void BeginWriteProbation() { breaker_.ForceProbation(clock_->Now()); }

  TableServer(const TableServer&) = delete;
  TableServer& operator=(const TableServer&) = delete;

  // ---------------------------------------------------------------------
  // Client side (any thread).
  // ---------------------------------------------------------------------

  /// Admits a request.  Always assigns an id and guarantees a response
  /// will be retrievable for it: immediate rejections (queue full, dead
  /// on arrival) are completed right here with the rejecting status.
  uint64_t Submit(Request request) {
    uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    if (request.deadline == 0 && options_.default_deadline_ticks > 0) {
      request.deadline = clock_->Now() + options_.default_deadline_ticks;
    }
    Status st = AdmissionDeadline(request.deadline);
    if (st.ok()) st = queue_.Push(Pending{id, std::move(request)});
    if (!st.ok()) {
      CountRejection(st);
      Complete(id, Response{std::move(st), {}, 0, clock_->Now()});
      return id;
    }
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  /// Admission for work queued outside this server: a sharded front door
  /// stages each request's portion for this shard itself and calls this
  /// with the portion's deadline and the portions it already holds for
  /// the shard.  Assigns the portion's id and counts it exactly as Submit
  /// counts a request; returns the rejection (deadline already past, or
  /// `queued` at queue_capacity) or OK when admitted.
  Status AdmitPortion(uint64_t deadline, uint64_t queued, uint64_t* id) {
    *id = next_id_.fetch_add(1, std::memory_order_relaxed);
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    Status st = AdmissionDeadline(deadline);
    if (st.ok() && queued >= options_.queue_capacity) {
      st = AdmissionQueue<Pending>::Full(options_.queue_capacity);
    }
    if (!st.ok()) {
      CountRejection(st);
      return st;
    }
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  /// Retrieves (and removes) the response for `id`; false if not completed
  /// yet.  Responses are held until taken — a client that never takes them
  /// should bound its in-flight ids.
  bool TakeResponse(uint64_t id, Response* out) {
    common::MutexLock lock(responses_mu_);
    auto it = responses_.find(id);
    if (it == responses_.end()) return false;
    *out = std::move(it->second);
    responses_.erase(it);
    return true;
  }

  uint64_t queued() const { return queue_.size(); }
  uint64_t completed_pending_take() const {
    common::MutexLock lock(responses_mu_);
    return responses_.size();
  }

  // ---------------------------------------------------------------------
  // Serving side (one thread).
  // ---------------------------------------------------------------------

  /// One admitted unit of a micro-batch: a request from this server's
  /// queue, or a sharded front door's portion of a request for this shard.
  struct Unit {
    uint64_t id = 0;  ///< seeds the retry jitter
    uint64_t deadline = 0;
    std::span<const Op> ops;
  };

  /// Executes one micro-batch plus one scrub slice.  Returns the number of
  /// requests it completed (0 when idle).
  uint64_t Step() {
    if (crashed()) return 0;
    gpusim::ScopedVirtualClock scoped(clock_);
    // Each unit's ops stay in its request's vector, whose buffer moves
    // with the request when `popped` grows.
    std::vector<Pending> popped;
    return Serve(
        [&](Unit* unit) {
          Pending p;
          if (!queue_.Pop(&p)) return false;
          popped.push_back(std::move(p));
          const Pending& q = popped.back();
          *unit = Unit{q.id, q.request.deadline, q.request.ops};
          return true;
        },
        [&](size_t i, Status status, uint32_t attempts,
            std::span<const MixedOp> results) {
          Response resp{std::move(status), {}, attempts, clock_->Now()};
          resp.results.resize(results.size());
          for (size_t k = 0; k < results.size(); ++k) {
            resp.results[k] = OpResult{results[k].hit, results[k].value};
          }
          Complete(popped[i].id, std::move(resp));
        });
  }

  /// The serving step behind Step(), for any source of units: takes units
  /// from `next(Unit*)` (false when none is left) until the batch holds
  /// max_batch_ops operations, executes them (triage, coalesced launches
  /// in admission order, one group commit, per-unit fallback), then runs
  /// one scrub slice and the checkpoint slot.  Each unit's outcome leaves through
  /// `done(i, status, attempts, results)`, where `i` is its position in
  /// the batch and `results` is empty unless its ops executed.  Expects
  /// the caller to have installed this server's clock.  Returns the
  /// number of units completed.
  template <typename Next, typename Done>
  uint64_t Serve(Next&& next, Done&& done) {
    if (crashed()) return 0;
    std::vector<Unit> batch;
    uint64_t ops = 0;
    Unit unit;
    while (ops < options_.max_batch_ops && next(&unit)) {
      ops += unit.ops.size();
      batch.push_back(unit);
    }
    uint64_t completed = 0;
    if (!batch.empty()) completed = ExecuteBatch(batch, done);
    if (crashed()) return completed;
    ScrubSlice();
    MaybeCheckpoint();
    return completed;
  }

  /// Steps until the queue is empty (or the durability layer crashed — a
  /// dead server would otherwise spin on a queue it can never drain).
  void RunUntilIdle() {
    while (!queue_.empty() && !crashed()) Step();
  }

  // ---------------------------------------------------------------------
  // Introspection.
  // ---------------------------------------------------------------------

  Table* table() { return table_.get(); }
  const Table* table() const { return table_.get(); }
  gpusim::VirtualClock* clock() { return clock_; }
  uint64_t now() const { return clock_->Now(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  bool read_only() const { return breaker_.read_only(); }
  const ServerStats& stats() const { return stats_; }
  const TableServerOptions& options() const { return options_; }
  const OnlineScrubber<Key, Value>& scrubber() const { return scrubber_; }
  durability::DurabilityManager<Key, Value>* durability() {
    return durability_;
  }

  /// Releases the owned table — for tearing a crashed server down while
  /// keeping its live state inspectable (tests).
  std::unique_ptr<Table> ReleaseTable() { return std::move(table_); }

 private:
  struct Pending {
    uint64_t id = 0;
    Request request;
  };

  TableServer(std::unique_ptr<Table> table,
              const TableServerOptions& options)
      : options_(options),
        table_(std::move(table)),
        queue_(options.queue_capacity),
        breaker_(options.breaker),
        scrubber_(table_.get()) {}

  /// The keys one launch of a micro-batch touches, and how: an open-
  /// addressing set of (key, stamp) entries.  A stamp names the unit that
  /// first touched the key, by an id unique across batches, and whether
  /// any unit wrote it; entries stamped before the current launch's first
  /// unit are dead, so opening the next launch empties the set in O(1).
  class WaveKeys {
   public:
    /// Sizes the set for a batch of `num_ops` ops in `num_units` units and
    /// opens its first launch.  At most an eighth full, so nearly every
    /// probe ends at its first entry; the set is touched once per op
    /// between launches that evict it from cache, so entries stay small.
    void BeginBatch(uint64_t num_ops, uint64_t num_units) {
      uint64_t capacity = 64;
      while (capacity < 8 * num_ops) capacity <<= 1;
      if (entries_.size() < capacity || next_id_ + num_units > kMaxId) {
        entries_.assign(std::max<uint64_t>(capacity, entries_.size()),
                        Entry{});
        shift_ = 64 - static_cast<int>(std::bit_width(entries_.size()) - 1);
        next_id_ = 1;
      }
      base_ = next_id_;
      next_id_ += static_cast<uint32_t>(num_units);
      first_ = base_;
    }

    /// Opens the next launch, starting with unit `unit`.
    void NextWave(uint32_t unit) { first_ = base_ + unit; }

    /// Records that unit `unit` touches `key` in the current launch.
    /// False when another unit already touched it there and either of the
    /// two writes it: the unit must move to the next launch.
    bool Add(Key key, OpType type, uint32_t unit) {
      const uint32_t write = type != OpType::kFind;
      const uint32_t id = base_ + unit;
      const uint64_t mask = entries_.size() - 1;
      uint64_t i =
          (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_;
      for (;; i = (i + 1) & mask) {
        Entry& e = entries_[i];
        if ((e.stamp >> 1) < first_) {
          e = Entry{key, (id << 1) | write};
          return true;
        }
        if (e.key != key) continue;
        // The entry keeps the first unit to touch the key: a later unit
        // conflicts on any write, including one the first unit made.
        if ((e.stamp >> 1) != id) return !(write | (e.stamp & 1));
        e.stamp |= write;
        return true;
      }
    }

   private:
    static constexpr uint32_t kMaxId = uint32_t{1} << 31;
    struct Entry {
      Key key{};
      uint32_t stamp = 0;  // (unit id << 1) | written; id 0: never used
    };
    std::vector<Entry> entries_;
    int shift_ = 64;
    uint32_t next_id_ = 1;  // ids of the next batch's units start here
    uint32_t base_ = 0;     // id of the current batch's unit 0
    uint32_t first_ = 0;    // id of the current launch's first unit
  };

  static bool HasWrite(std::span<const Op> ops) {
    for (const Op& op : ops) {
      if (op.type != OpType::kFind) return true;
    }
    return false;
  }

  bool Expired(uint64_t deadline) const {
    return deadline != 0 && clock_->Now() > deadline;
  }

  Status AdmissionDeadline(uint64_t deadline) const {
    if (!Expired(deadline)) return Status::OK();
    return Status::DeadlineExceeded("deadline passed before admission");
  }

  void CountRejection(const Status& st) {
    if (st.IsDeadlineExceeded()) {
      stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Complete(uint64_t id, Response response) {
    common::MutexLock lock(responses_mu_);
    responses_.emplace(id, std::move(response));
  }

  /// Triage + coalesced fast path + per-unit fallback.
  template <typename Done>
  uint64_t ExecuteBatch(std::span<const Unit> batch, Done& done) {
    uint64_t completed = 0;
    std::vector<size_t> runnable;  // positions in `batch`
    runnable.reserve(batch.size());
    uint64_t runnable_ops = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const Unit& u = batch[i];
      if (Expired(u.deadline)) {
        stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
        done(i, Status::DeadlineExceeded("deadline passed while queued"), 0,
             {});
        ++completed;
      } else if (HasWrite(u.ops) && !breaker_.AllowWrite(clock_->Now())) {
        stats_.rejected_unavailable.fetch_add(1, std::memory_order_relaxed);
        done(i,
             Status::Unavailable("server degraded to read-only (breaker " +
                                 std::string(CircuitBreaker::StateName(
                                     breaker_.state())) +
                                 ")"),
             0, {});
        ++completed;
      } else {
        runnable.push_back(i);
        runnable_ops += u.ops.size();
      }
    }
    if (runnable.empty()) return completed;

    // Coalesced fast path: the runnable units' ops in as few launches as
    // admission order allows.  Ops inside one launch run concurrently, so
    // a unit that shares a key with an earlier unit of the current launch
    // (and either side writes it) opens the next launch: across units the
    // batch then executes in admission order, the order the WAL logs.
    // The key check rides the pass that builds the op vector.
    std::vector<MixedOp> ops;
    ops.reserve(runnable_ops);
    std::vector<size_t> launch_ends;  // positions in `runnable`
    std::vector<uint64_t> unit_begin;  // first op of each runnable unit
    unit_begin.reserve(runnable.size() + 1);
    const bool track = runnable.size() > 1;
    if (track) wave_keys_.BeginBatch(runnable_ops, runnable.size());
    for (size_t r = 0; r < runnable.size(); ++r) {
      const std::span<const Op> unit_ops = batch[runnable[r]].ops;
      const auto unit = static_cast<uint32_t>(r);
      unit_begin.push_back(ops.size());
      bool fits = true;
      for (const Op& op : unit_ops) {
        ops.push_back(MixedOp{op.type, op.key, op.value, 0});
        if (track && fits) fits = wave_keys_.Add(op.key, op.type, unit);
      }
      if (!fits) {
        launch_ends.push_back(r);
        wave_keys_.NextWave(unit);
        for (const Op& op : unit_ops) wave_keys_.Add(op.key, op.type, unit);
      }
    }
    unit_begin.push_back(ops.size());
    launch_ends.push_back(runnable.size());
    Status st;
    size_t ran = 0;  // runnable units whose launch succeeded
    for (size_t end : launch_ends) {
      stats_.batch_launches.fetch_add(1, std::memory_order_relaxed);
      st = table_->BulkExecute(std::span<MixedOp>(ops).subspan(
          unit_begin[ran], unit_begin[end] - unit_begin[ran]));
      if (!st.ok()) break;
      ran = end;
    }
    if (ran > 0) {
      // Group commit: append every acknowledged-to-be write to the WAL and
      // flush ONCE for the whole micro-batch, before any ack is released.
      for (size_t r = 0; r < ran; ++r) LogWrites(batch[runnable[r]].ops);
      Status commit = Commit();
      if (crashed()) return completed;  // simulated death: acks never leave
      for (size_t r = 0; r < ran; ++r) {
        const size_t i = runnable[r];
        const bool write = HasWrite(batch[i].ops);
        // The ops are applied but the flush failed cleanly: the write is
        // live yet not durable, and honesty demands saying so.
        Status status = write && !commit.ok()
                            ? Status::DataLoss(
                                  "write applied but not durable: " +
                                  commit.message())
                            : Status::OK();
        Finish(i, std::move(status), /*attempts=*/1, write,
               std::span<const MixedOp>(ops).subspan(
                   unit_begin[r], unit_begin[r + 1] - unit_begin[r]),
               done);
        ++completed;
      }
    }
    if (ran == runnable.size()) return completed;

    // Slow path: a coalesced launch failed, so outcomes cannot be
    // attributed across its units.  Re-run each remaining unit alone, in
    // order (all ops are idempotent upserts/reads/deletes, so re-execution
    // is safe) with the retry policy; the failed launch counts as its
    // units' first attempt, and units of later launches never ran.
    stats_.coalesced_fallbacks.fetch_add(1, std::memory_order_relaxed);
    const size_t failed_end =
        *std::upper_bound(launch_ends.begin(), launch_ends.end(), ran);
    for (size_t r = ran; r < runnable.size(); ++r) {
      if (crashed()) break;  // remaining units die unacknowledged
      const size_t i = runnable[r];
      ExecuteWithRetry(i, batch[i], /*attempts_so_far=*/r < failed_end ? 1 : 0,
                       done);
      ++completed;
    }
    return completed;
  }

  /// Appends one WAL record per write op, in op order.  A no-op when no
  /// durability manager is attached.
  void LogWrites(std::span<const Op> ops) {
    if (durability_ == nullptr) return;
    for (const Op& op : ops) {
      if (op.type == OpType::kInsert) {
        durability_->LogInsert(op.key, op.value);
      } else if (op.type == OpType::kErase) {
        durability_->LogErase(op.key);
      }
    }
  }

  /// Flushes the logged writes with a single group commit.  OK when no
  /// durability manager is attached.
  Status Commit() {
    return durability_ == nullptr ? Status::OK() : durability_->Commit();
  }

  /// Completes unit `i` with `status` and its ops' results, and feeds the
  /// outcome to the breaker (writes only) and the completion counters.
  template <typename Done>
  void Finish(size_t i, Status status, uint32_t attempts, bool write,
              std::span<const MixedOp> results, Done& done) {
    if (write) {
      if (status.ok()) {
        breaker_.OnWriteSuccess();
      } else {
        breaker_.OnWriteFailure(clock_->Now());
      }
    }
    if (status.ok()) {
      stats_.completed_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.completed_error.fetch_add(1, std::memory_order_relaxed);
    }
    done(i, std::move(status), attempts, results);
  }

  /// Runs one unit's ops alone, retrying per policy while the deadline
  /// allows; completes the unit with its terminal outcome.
  template <typename Done>
  void ExecuteWithRetry(size_t i, const Unit& u, uint32_t attempts_so_far,
                        Done& done) {
    std::vector<MixedOp> ops;
    ops.reserve(u.ops.size());
    for (const Op& op : u.ops) {
      ops.push_back(MixedOp{op.type, op.key, op.value, 0});
    }
    const bool has_write = HasWrite(u.ops);
    uint32_t attempts = attempts_so_far;
    Status st;
    for (;;) {
      for (MixedOp& op : ops) op.hit = 0;
      st = table_->BulkExecute(ops);
      ++attempts;
      if (attempts > attempts_so_far + 1) {
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
      }
      if (st.ok() || !options_.retry.ShouldRetry(st)) break;
      if (attempts >= static_cast<uint32_t>(options_.retry.max_attempts)) {
        break;
      }
      // Back off in virtual time; the wait itself can expire the deadline.
      uint64_t backoff = options_.retry.BackoffTicks(
          static_cast<int>(attempts), u.id);
      clock_->Advance(backoff);
      stats_.backoff_ticks_slept.fetch_add(backoff,
                                           std::memory_order_relaxed);
      if (Expired(u.deadline)) {
        // If this write was the half-open probe, resolve it as a failure:
        // leaving the probe unresolved would reject writes forever.
        if (has_write &&
            breaker_.state() == CircuitBreaker::State::kHalfOpen) {
          breaker_.OnWriteFailure(clock_->Now());
        }
        stats_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
        done(i,
             Status::DeadlineExceeded("deadline passed after " +
                                      std::to_string(attempts) +
                                      " attempts"),
             attempts, {});
        return;
      }
    }

    // Only an OK execution is acknowledged as applied, so only OK writes
    // enter the WAL (non-OK partial applications are "uncertain" by the
    // side-effect contract; checkpoints still capture whatever stuck).
    if (st.ok() && has_write) {
      LogWrites(u.ops);
      Status commit = Commit();
      if (crashed()) return;  // simulated death: the ack never leaves
      if (!commit.ok()) {
        st = Status::DataLoss("write applied but not durable: " +
                              commit.message());
      }
    }
    Finish(i, std::move(st), attempts, has_write, ops, done);
  }

  /// One bounded scrub slice between batches.
  void ScrubSlice() {
    if (options_.scrub_buckets_per_step == 0) return;
    stats_.scrub_steps.fetch_add(1, std::memory_order_relaxed);
    auto report = scrubber_.Step(options_.scrub_buckets_per_step);
    if (report.corrupted_slots > 0) EscalateCorruption(report);
    if (!report.filled_factor_ok && options_.resize_on_scrub_violation) {
      stats_.scrub_resizes.fetch_add(1, std::memory_order_relaxed);
      Status st = table_->ResizeToBounds();
      if (!st.ok()) {
        DYCUCKOO_LOG(Warning)
            << "scrub-triggered ResizeToBounds failed: " << st.ToString();
      } else if (durability_ != nullptr && !crashed()) {
        // Mark the layout change in the log so an operator replaying it can
        // line resizes up with latency shifts; carries no table state.
        durability_->LogResizeBarrier(table_->capacity_slots());
        Status commit = durability_->Commit();
        if (!commit.ok()) {
          // No ack depends on the barrier: it stays pending in the WAL
          // and rides the next group commit.  But a flush failure here
          // is an early smoke signal for the write path — surface it
          // ([[nodiscard]] caught this being swallowed).
          DYCUCKOO_LOG(Warning)
              << "resize-barrier group commit failed (record rides the "
                 "next commit): " << commit.ToString();
        }
      }
    }
  }

  /// Repair-or-escalate for a scrub slice that detected corrupted slots.
  /// The scrub already unpublished every corrupted slot (no reader can see
  /// the damaged bits), so what is left is restoring the truth:
  ///
  ///   attributable key + durable kFound ..... re-publish the WAL value
  ///   attributable key + durable kErased .... the removal WAS the truth
  ///   attributable key + kAbsent/kUnreadable  unrepairable (the key read
  ///                                           from a corrupted slot cannot
  ///                                           be trusted to name the real
  ///                                           victim, or durability cannot
  ///                                           answer)
  ///   unattributable corruption ............. unrepairable (nothing to
  ///                                           look up)
  ///
  /// Any unrepairable finding force-opens the breaker (writes stop NOW,
  /// not after a failure streak) and latches integrity_compromised_ so a
  /// supervisor quarantines the shard and rebuilds it from durable state.
  /// Repairs re-publish pairs that are already durable, so no new WAL
  /// records are written.
  void EscalateCorruption(
      const typename Table::ScrubReport& report) {
    stats_.scrub_corruption_detected.fetch_add(report.corrupted_slots,
                                               std::memory_order_relaxed);
    uint64_t unrepairable = report.corrupted_unattributable;
    for (Key key : report.corrupted_keys) {
      if (durability_ == nullptr || crashed()) {
        ++unrepairable;
        continue;
      }
      Value v{};
      switch (durability_->PointLookup(key, &v)) {
        case durability::PointLookupResult::kFound:
          // Infallible: a pair the bucket rejects spills to the stash.
          table_->RepairCorruptedPair(key, v);
          stats_.scrub_corruption_repaired.fetch_add(
              1, std::memory_order_relaxed);
          DYCUCKOO_LOG(Info)
              << "scrub: repaired corrupted key from durable state";
          break;
        case durability::PointLookupResult::kErased:
          // The durable truth is "erased"; the scrub's unpublish already
          // realized it.  Resolved, nothing to re-publish.
          stats_.scrub_corruption_repaired.fetch_add(
              1, std::memory_order_relaxed);
          break;
        case durability::PointLookupResult::kAbsent:
        case durability::PointLookupResult::kUnreadable:
          ++unrepairable;
          break;
      }
    }
    if (unrepairable > 0) {
      stats_.scrub_corruption_unrepairable.fetch_add(
          unrepairable, std::memory_order_relaxed);
      table_->NoteUnrepairableCorruption(unrepairable);
      if (!integrity_compromised_) {
        DYCUCKOO_LOG(Error)
            << "scrub: " << unrepairable
            << " corrupted slot(s) unrepairable from durable state; "
               "opening breaker and flagging integrity compromise";
      }
      integrity_compromised_ = true;
      breaker_.ForceOpen(clock_->Now());
    }
  }

  /// Between-batch checkpoint slot: snapshots the table once the WAL has
  /// grown past the configured thresholds, then truncates the log head.
  void MaybeCheckpoint() {
    if (durability_ == nullptr || crashed()) return;
    Status st = durability_->MaybeCheckpoint(table_.get());
    if (!st.ok() && !crashed()) {
      DYCUCKOO_LOG(Warning) << "checkpoint failed (will retry): "
                            << st.ToString();
    }
  }

  TableServerOptions options_;
  std::unique_ptr<Table> table_;
  durability::DurabilityManager<Key, Value>* durability_ = nullptr;
  gpusim::VirtualClock own_clock_;
  gpusim::VirtualClock* clock_ = &own_clock_;
  AdmissionQueue<Pending> queue_;
  CircuitBreaker breaker_;
  OnlineScrubber<Key, Value> scrubber_;
  ServerStats stats_;
  WaveKeys wave_keys_;  // ExecuteBatch scratch, reused across batches
  bool integrity_compromised_ = false;

  std::atomic<uint64_t> next_id_{1};
  mutable common::Mutex responses_mu_;
  std::unordered_map<uint64_t, Response> responses_ GUARDED_BY(responses_mu_);
};

/// The paper's primary 4-byte configuration, served.
using DyCuckooServer = TableServer<uint32_t, uint32_t>;

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_TABLE_SERVER_H_
