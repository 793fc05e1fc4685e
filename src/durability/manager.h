// DurabilityManager: the serving layer's single handle on durable state.
//
// Owns the WAL writer and the checkpoint store and sequences the
// checkpoint protocol.  TableServer drives it from exactly two places:
//
//   - per micro-batch: Log*() for each acknowledged-successful write, then
//     Commit() — the group commit.  Acks are released only after Commit()
//     returns OK; a clean flush failure surfaces as DataLoss on the
//     affected responses, a crash-style fault leaves the server crashed().
//   - per scrub slot (between batches): MaybeCheckpoint(table), which
//     snapshots the table once the WAL has grown past the configured
//     thresholds, then truncates the log head.
//
// Checkpoint protocol (and why the WAL trims to the *previous* LSN):
//
//   record the WAL cut at C              (durable LSN C and its end offset)
//   append checkpoint entry @ LSN C      (chunked, CRC-trailed; the table
//                                         is serialized into the store
//                                         and checksummed once)
//   append + flush kCheckpointMark(C)    (operators can see it in the log)
//   truncate WAL head at cut(C_prev)     (records lsn <= C_prev dropped)
//   prune store to the last 2 entries
//
// Neither the truncation nor the prune re-reads what it keeps or drops:
// both cut at offsets recorded when the bytes were appended (see
// docs/robustness.md "Incremental checkpoints").
//
// If the newest checkpoint is torn/corrupt by a crash, recovery falls back
// to the previous one — and the WAL still holds every record after C_prev,
// so no acknowledged write is lost.  Only when the *next* checkpoint
// commits does the log give up the bytes that older checkpoint made
// redundant.

#ifndef DYCUCKOO_DURABILITY_MANAGER_H_
#define DYCUCKOO_DURABILITY_MANAGER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "dycuckoo/dynamic_table.h"
#include "gpusim/fault_injector.h"

namespace dycuckoo {
namespace durability {

struct DurabilityOptions {
  /// Take a checkpoint once this many WAL bytes were flushed since the
  /// last one.  0 disables the byte trigger.
  uint64_t checkpoint_wal_bytes = 1ull << 20;

  /// ... or once this many records were flushed since the last one.
  /// 0 disables the record trigger.
  uint64_t checkpoint_wal_records = 0;

  /// Checkpoints retained after pruning.  Must be >= 2: recovery needs a
  /// fallback when the newest entry is torn by a crash.
  int keep_checkpoints = 2;

  /// Truncate the WAL head after a successful checkpoint.
  bool truncate_wal = true;
};

struct DurabilityStats {
  uint64_t records_logged = 0;
  uint64_t group_commits = 0;
  uint64_t commit_failures = 0;   // clean flush failures (retried)
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t checkpoint_skips = 0;  // trigger hit but WAL had retained records
  uint64_t truncations = 0;
};

template <typename Key, typename Value>
class DurabilityManager {
 public:
  using Table = DynamicTable<Key, Value>;

  /// `scope` names this manager's fault domain (a shard's segment scope,
  /// e.g. "shard-00003/"): it prefixes every durability kill point and
  /// I/O-fault consultation underneath, so chaos campaigns can crash one
  /// shard's WAL/checkpoint stream while the rest of the fleet runs
  /// clean.  Empty = unscoped (the single-table deployment).
  explicit DurabilityManager(const DurabilityOptions& options = {},
                             uint64_t start_lsn = 1, std::string scope = "")
      : options_(options),
        scope_(std::move(scope)),
        wal_(start_lsn, scope_),
        checkpoints_(scope_) {
    if (options_.keep_checkpoints < 2) options_.keep_checkpoints = 2;
  }

  // --- Per-batch hooks (called by TableServer) -----------------------------

  void LogInsert(Key key, Value value) {
    wal_.AppendInsert(key, value);
    ++stats_.records_logged;
  }

  void LogErase(Key key) {
    wal_.AppendErase(key);
    ++stats_.records_logged;
  }

  void LogResizeBarrier(uint64_t capacity_slots) {
    wal_.AppendResizeBarrier(capacity_slots);
    ++stats_.records_logged;
  }

  /// Marks a reshard chunk cutover in this segment's log.  Written by
  /// service::Resharder on the source and then the target segment; the
  /// target-side record is what recovery trusts (see recovery.h).
  void LogReshardCutover(uint64_t generation, uint32_t chunk,
                         uint32_t shards_from, uint32_t shards_to) {
    wal_.AppendReshardCutover(generation, chunk, shards_from, shards_to);
    ++stats_.records_logged;
  }

  /// Group commit: one flush for everything logged since the last call.
  Status Commit() {
    if (wal_.pending_records() == 0) return Status::OK();
    Status st = wal_.Flush();
    if (st.ok()) {
      ++stats_.group_commits;
    } else if (!dead()) {
      ++stats_.commit_failures;
    }
    return st;
  }

  // --- Checkpointing (called from the between-batch scrub slot) ------------

  bool ShouldCheckpoint() const {
    uint64_t bytes = wal_.bytes_flushed() - bytes_at_last_checkpoint_;
    uint64_t records = wal_.records_flushed() - records_at_last_checkpoint_;
    return (options_.checkpoint_wal_bytes > 0 &&
            bytes >= options_.checkpoint_wal_bytes) ||
           (options_.checkpoint_wal_records > 0 &&
            records >= options_.checkpoint_wal_records);
  }

  Status MaybeCheckpoint(Table* table) {
    if (dead()) return Status::Unavailable("durability: crashed");
    if (!ShouldCheckpoint()) return Status::OK();
    return CheckpointNow(table);
  }

  /// Runs the full checkpoint protocol now.  A clean injected failure is
  /// counted and returned; the next trigger retries.
  Status CheckpointNow(Table* table) {
    if (dead()) return Status::Unavailable("durability: crashed");
    if (wal_.pending_records() > 0) {
      // Records retained by a cleanly failed flush are not durable yet; a
      // checkpoint taken now would stamp an LSN the log cannot back.
      ++stats_.checkpoint_skips;
      return Status::OK();
    }
    // The checkpoint covers every durable record, so the log may later be
    // cut exactly where it ends now.
    const WalCut cut = wal_.durable_cut();
    const uint64_t checkpoint_lsn = cut.lsn;

    // One pass over the table: the snapshot is serialized straight into the
    // store, and its CRC seeds the entry's.
    Status st = checkpoints_.AppendEntry(
        checkpoint_lsn, [table](std::string* out, uint32_t* crc) {
          return table->WriteSnapshot(
              [out](const char* data, size_t len) {
                out->append(data, len);
                return true;
              },
              crc);
        });
    if (!st.ok()) {
      if (!dead()) ++stats_.checkpoint_failures;
      return st;
    }

    // Mark the checkpoint in the log (operators can correlate the two
    // streams); recovery does not depend on the mark.
    wal_.AppendCheckpointMark(checkpoint_lsn);
    st = Commit();
    if (dead()) return st;
    auto* injector = gpusim::FaultInjector::Active();
    if (injector && injector->OnKillPoint(
                        scope_.empty() ? "ckpt.mark"
                                       : (scope_ + "ckpt.mark").c_str())) {
      killed_ = true;
      return Status::Unavailable("durability: simulated crash at ckpt.mark");
    }

    const WalCut previous = last_checkpoint_cut_;
    last_checkpoint_cut_ = cut;
    bytes_at_last_checkpoint_ = wal_.bytes_flushed();
    records_at_last_checkpoint_ = wal_.records_flushed();
    ++stats_.checkpoints;

    if (options_.truncate_wal && previous.lsn > 0) {
      st = wal_.TruncateHead(previous);
      if (!st.ok()) return st;
      ++stats_.truncations;
    }
    DYCUCKOO_RETURN_NOT_OK(
        checkpoints_.PruneToLast(options_.keep_checkpoints));
    return Status::OK();
  }

  // --- Targeted repair (called by the scrub escalation path) ---------------

  /// durability::PointLookup() over this manager's durable images: the
  /// state of ONE key as Recover() of them would rebuild it.  Because acks
  /// are released only after the group commit, every acknowledged write of
  /// the key is visible here — which is what makes the scrubber's
  /// repair-from-durability exact rather than best-effort.  On kUnreadable
  /// the caller must escalate to a full-shard repair instead of guessing.
  PointLookupResult PointLookup(Key key, Value* value) const {
    return durability::PointLookup<Key, Value>(
        checkpoints_.durable_image(), wal_.durable_image(), key, value);
  }

  // --- State ---------------------------------------------------------------

  /// True once any crash-style fault or kill point fired: the process is
  /// dead as far as durability is concerned, and the server must stop
  /// acknowledging.  Recover() from the durable images is the only exit.
  bool dead() const { return killed_ || wal_.dead() || checkpoints_.dead(); }

  WalWriter<Key, Value>& wal() { return wal_; }
  const WalWriter<Key, Value>& wal() const { return wal_; }
  CheckpointStore& checkpoints() { return checkpoints_; }
  const CheckpointStore& checkpoints() const { return checkpoints_; }
  const DurabilityStats& stats() const { return stats_; }
  const DurabilityOptions& options() const { return options_; }
  const std::string& scope() const { return scope_; }
  uint64_t last_checkpoint_lsn() const { return last_checkpoint_cut_.lsn; }
  /// Where the WAL ended when the newest checkpoint was taken: the cut the
  /// next checkpoint truncates the log at.
  const WalCut& last_checkpoint_cut() const { return last_checkpoint_cut_; }

 private:
  DurabilityOptions options_;
  std::string scope_;
  WalWriter<Key, Value> wal_;
  CheckpointStore checkpoints_;
  DurabilityStats stats_;
  bool killed_ = false;
  WalCut last_checkpoint_cut_;
  uint64_t bytes_at_last_checkpoint_ = 0;
  uint64_t records_at_last_checkpoint_ = 0;
};

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_MANAGER_H_
