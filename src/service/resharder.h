// service::Resharder — online, crash-safe shard split (N -> 2N) and merge
// (2N -> N), one hash-range chunk at a time, while the deployment serves.
//
// The keyspace is divided into num_chunks = kReshardChunksPerShard *
// max(from, to) hash-range chunks (see shard_router.h for why that count
// makes chunked routing refine the plain modulo map).  Each chunk walks a
// strictly-forward state machine, every transition persisted to the
// migration journal image before the next begins:
//
//   kPending --copy--> kCopied --cutover--> kCutOver --gc--> kDone
//
//   copy     bulk-upsert the chunk's pairs into the target shard: append
//            one kInsert per pair to the TARGET segment's WAL, group
//            commit, then apply to the target table.  Routing still old.
//   cutover  append a kReshardCutover record to the source segment, then
//            the target segment (group commit each), flip the router's
//            cutover bit, persist the journal.  From here the chunk's
//            reads and writes go to the target.
//   gc       append one kErase per stale source pair to the SOURCE
//            segment, commit, erase from the source table.
//
// Every sub-step is idempotent: copy inserts are upserts, cutover records
// are markers (duplicates harmless), gc erases are idempotent — so any
// sub-step can be re-run after a crash or a cleanly-failed group commit
// without changing the outcome.
//
// Crash decision rule (durability::RecoverShardedDeployment): the journal
// plus target-side kReshardCutover WAL evidence is resolved, and the
// migration RESUMES iff any chunk's routing switched to the new
// generation, else it ROLLS BACK (nothing observable happened: chunks
// migrate in index order, so no-cutover-anywhere means no data moved
// either).  Chunk-by-chunk this means:
//
//   kill point               journal says   recovery does
//   reshard.before_copy      pending        resume* (re-copy) or rollback
//   reshard.after_copy       copied         resume* (copy durable) or rollback
//   reshard.before_cutover   copied         resume* or rollback
//   reshard.after_cutover    cut-over       resume (routing is new)
//   reshard.before_gc        cut-over       resume (gc re-runs)
//
//   (* resume when an earlier chunk already cut over, rollback when the
//      crash hit the very first chunk — deterministically, never a guess.)
//
// Availability: the only unavailability a migration introduces is writes
// to the one chunk whose copy is durable but not yet cut over (served
// stale-ly from the source would lose the write; serving from the target
// would break old-generation reads).  Those writes are rejected with the
// same machine-readable details as quarantine rejections
// (shard / retry_after_ticks / executed=never, plus reshard_chunk).
// Reads stay available everywhere throughout.
//
// Supervision: if either participant of the in-flight chunk is
// quarantined, the migration pauses (no sub-step runs) and resumes
// automatically once ShardSupervisor heals the shard.
//
// The class is templated on its Host (ShardedTableServer) rather than
// including it: the Resharder owns the migration state machine, the host
// owns the shards, and the narrow Reshard* accessor surface between them
// is the whole contract.

#ifndef DYCUCKOO_SERVICE_RESHARDER_H_
#define DYCUCKOO_SERVICE_RESHARDER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "durability/log_format.h"
#include "durability/sharded.h"
#include "dycuckoo/write_fold.h"
#include "gpusim/fault_injector.h"

namespace dycuckoo {
namespace service {

template <typename Host>
class Resharder {
 public:
  enum class State {
    kIdle = 0,      // no migration armed
    kRunning = 1,   // advancing one chunk per Advance()
    kPaused = 2,    // a participating shard is quarantined; waiting on heal
    kDead = 3,      // a reshard.* kill point fired: simulated process death
    kComplete = 4,  // every chunk kDone; host must finalize
  };

  struct Stats {
    uint64_t chunks_copied = 0;
    uint64_t chunks_cut_over = 0;
    uint64_t chunks_gced = 0;
    uint64_t keys_copied = 0;
    uint64_t keys_gced = 0;
    uint64_t pauses = 0;   // running -> paused transitions
    uint64_t resumes = 0;  // paused -> running transitions
    uint64_t deferrals = 0;  // Advance() skipped: participant not quiesced
  };

  explicit Resharder(Host* host) : host_(host) {}

  /// Arms the migration with a fresh journal (BeginReshard) or a resolved
  /// one (crash resume).  The host must already have the router in
  /// two-generation mode with cutover bits matching the journal, and every
  /// physical shard slot constructed.  Persists the journal image.
  void Arm(durability::ReshardJournal journal) {
    journal_ = std::move(journal);
    copy_in_flight_ = false;
    state_ = journal_.Complete() ? State::kComplete : State::kRunning;
    host_->ReshardPersistJournal(journal_.Encode());
  }

  /// Clears the migration (after finalize or rollback).
  void Disarm() {
    state_ = State::kIdle;
    copy_in_flight_ = false;
    host_->ReshardPersistJournal(std::string());
  }

  /// Migrates at most one chunk through its remaining states.  Called from
  /// the host's Step() after per-shard serving and supervision have run,
  /// so the quiesce gate sees the post-batch queue depths.
  void Advance() {
    if (state_ != State::kRunning && state_ != State::kPaused) return;
    const uint32_t c = journal_.FirstIncomplete();
    if (c >= journal_.num_chunks) {
      state_ = State::kComplete;
      return;
    }
    const uint32_t src = journal_.source_shard(c);
    const uint32_t dst = journal_.target_shard(c);
    // Supervision gate: a quarantined participant pauses the whole
    // migration — migrating data into (or out of) a shard that is being
    // healed from its durable images would race the heal's replay.
    if (!host_->ReshardShardServing(src) ||
        !host_->ReshardShardServing(dst)) {
      if (state_ == State::kRunning) {
        ++stats_.pauses;
        state_ = State::kPaused;
        paused_on_ = !host_->ReshardShardServing(src) ? src : dst;
      }
      return;
    }
    if (state_ == State::kPaused) {
      ++stats_.resumes;
      state_ = State::kRunning;
    }
    // Quiesce gate: queued writes on either participant must drain first —
    // a queued source-side write executing after the copy was taken would
    // be silently lost at cutover.
    if (!host_->ReshardShardQuiesced(src) ||
        (dst != src && !host_->ReshardShardQuiesced(dst))) {
      ++stats_.deferrals;
      return;
    }
    current_chunk_ = c;
    while (journal_.chunks[c] != durability::ReshardChunkState::kDone) {
      bool advanced = false;
      switch (journal_.chunks[c]) {
        case durability::ReshardChunkState::kPending:
          advanced = CopyChunk(c, src, dst);
          break;
        case durability::ReshardChunkState::kCopied:
          advanced = CutOverChunk(c, src, dst);
          break;
        case durability::ReshardChunkState::kCutOver:
          advanced = GcChunk(c, src, dst);
          break;
        case durability::ReshardChunkState::kDone:
          advanced = true;
          break;
      }
      if (!advanced) return;  // killed, or a clean failure to retry
    }
    if (journal_.Complete()) state_ = State::kComplete;
  }

  /// True if writes to `chunk` must be rejected right now: the chunk's
  /// copy window is open (copy started or durable, cutover not yet done).
  /// Reads are never blocked — the source copy stays authoritative for
  /// reads until the cutover bit flips.
  bool BlocksWrites(uint32_t chunk) const {
    if (state_ == State::kIdle || state_ == State::kComplete) return false;
    const uint32_t c = journal_.FirstIncomplete();
    if (c >= journal_.num_chunks || chunk != c) return false;
    return copy_in_flight_ ||
           journal_.chunks[c] == durability::ReshardChunkState::kCopied;
  }

  State state() const { return state_; }
  bool active() const {
    return state_ != State::kIdle && state_ != State::kComplete;
  }
  bool dead() const { return state_ == State::kDead; }
  bool complete() const { return state_ == State::kComplete; }
  bool paused() const { return state_ == State::kPaused; }
  uint32_t paused_on() const { return paused_on_; }
  uint32_t current_chunk() const { return current_chunk_; }
  uint64_t chunks_done() const {
    uint64_t n = 0;
    for (durability::ReshardChunkState s : journal_.chunks) {
      if (s == durability::ReshardChunkState::kDone) ++n;
    }
    return n;
  }
  const durability::ReshardJournal& journal() const { return journal_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Crosses a reshard kill point; firing is simulated whole-process
  /// death (unlike shard-scoped durability kill points, which take one
  /// fault domain).  The host stops stepping and the test recovers the
  /// deployment from its durable images.
  bool Kill(const char* point) {
    auto* injector = gpusim::FaultInjector::Active();
    if (injector != nullptr && injector->OnKillPoint(point)) {
      state_ = State::kDead;
      return true;
    }
    return false;
  }

  bool CopyChunk(uint32_t c, uint32_t src, uint32_t dst) {
    if (Kill(durability::kReshardKillPointNames[0])) return false;
    copy_in_flight_ = true;  // write window opens: see BlocksWrites
    if (dst != src) {
      auto* table = host_->ReshardTable(src);
      auto* mgr = host_->ReshardManager(dst);
      auto pairs = table->Dump();
      using Pair = typename decltype(pairs)::value_type;
      WriteFold<typename Pair::first_type, typename Pair::second_type> fold;
      uint64_t copied = 0;
      for (const auto& kv : pairs) {
        if (host_->ReshardRouter()->ChunkOf(kv.first) != c) continue;
        if (mgr != nullptr) mgr->LogInsert(kv.first, kv.second);
        fold.Upsert(kv.first, kv.second);
        ++copied;
      }
      if (mgr != nullptr && !mgr->Commit().ok()) {
        // Clean failure retries next Advance (re-logged duplicates are
        // upserts); a crash-style fault surfaces as the shard crashing,
        // which the supervision gate turns into a pause.
        return false;
      }
      // A retried copy finds some of the chunk's keys already on the
      // target; the fold's resident/new split keeps those upserts out of
      // the new-key batch.
      if (!fold.ApplyTo(host_->ReshardTable(dst)).ok()) return false;
      stats_.keys_copied += copied;
    }
    journal_.chunks[c] = durability::ReshardChunkState::kCopied;
    host_->ReshardPersistJournal(journal_.Encode());
    ++stats_.chunks_copied;
    if (Kill(durability::kReshardKillPointNames[1])) return false;
    return true;
  }

  bool CutOverChunk(uint32_t c, uint32_t src, uint32_t dst) {
    copy_in_flight_ = true;  // crash-resume lands here with kCopied
    if (Kill(durability::kReshardKillPointNames[2])) return false;
    // Source first, target second: recovery trusts only the TARGET-side
    // record (it proves the copy committed before it), so a crash between
    // the two leaves a stray source marker that proves nothing.
    auto* smgr = host_->ReshardManager(src);
    if (smgr != nullptr) {
      smgr->LogReshardCutover(journal_.generation_from, c,
                              journal_.shards_from, journal_.shards_to);
      if (!smgr->Commit().ok()) return false;
    }
    if (dst != src) {
      auto* tmgr = host_->ReshardManager(dst);
      if (tmgr != nullptr) {
        tmgr->LogReshardCutover(journal_.generation_from, c,
                                journal_.shards_from, journal_.shards_to);
        if (!tmgr->Commit().ok()) return false;
      }
    }
    host_->ReshardRouter()->SetCutOver(c);
    journal_.chunks[c] = durability::ReshardChunkState::kCutOver;
    copy_in_flight_ = false;  // write window closes: writes route to target
    host_->ReshardPersistJournal(journal_.Encode());
    ++stats_.chunks_cut_over;
    if (Kill(durability::kReshardKillPointNames[3])) return false;
    return true;
  }

  bool GcChunk(uint32_t c, uint32_t src, uint32_t dst) {
    if (Kill(durability::kReshardKillPointNames[4])) return false;
    if (dst != src) {
      auto* table = host_->ReshardTable(src);
      auto* mgr = host_->ReshardManager(src);
      auto pairs = table->Dump();
      std::vector<decltype(pairs[0].first)> doomed;
      for (const auto& kv : pairs) {
        if (host_->ReshardRouter()->ChunkOf(kv.first) != c) continue;
        if (mgr != nullptr) mgr->LogErase(kv.first);
        doomed.push_back(kv.first);
      }
      if (mgr != nullptr && !mgr->Commit().ok()) return false;
      Status erased = table->BulkErase(doomed);
      if (!erased.ok()) {
        // The pairs are gone; only the post-erase resize failed.
        DYCUCKOO_LOG(Warning) << "reshard gc of chunk " << c
                              << ": post-erase maintenance failed: "
                              << erased.ToString();
      }
      stats_.keys_gced += doomed.size();
    }
    journal_.chunks[c] = durability::ReshardChunkState::kDone;
    host_->ReshardPersistJournal(journal_.Encode());
    ++stats_.chunks_gced;
    return true;
  }

  Host* host_;
  durability::ReshardJournal journal_;
  State state_ = State::kIdle;
  bool copy_in_flight_ = false;
  uint32_t current_chunk_ = 0;
  uint32_t paused_on_ = 0;
  Stats stats_;
};

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_RESHARDER_H_
