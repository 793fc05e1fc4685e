// Incremental checkpoint store: LSN-stamped DynamicTable snapshots.
//
// The store is an append-only sequence of entries, each wrapping one
// `DynamicTable::Save()` v2 snapshot with the LSN it covers (see
// log_format.h for the byte layout).  A checkpoint at LSN C makes every
// WAL record with lsn <= C redundant — but the WAL is only truncated to
// the *previous* checkpoint's LSN, so recovery survives a torn or
// bit-flipped newest entry by falling back one checkpoint and replaying
// a longer WAL suffix.
//
// Like WalWriter, "durable" is an in-memory image; entries are written in
// chunks with kill points between them so chaos tests can crash the
// process with a half-written checkpoint on disk.

#ifndef DYCUCKOO_DURABILITY_CHECKPOINT_H_
#define DYCUCKOO_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace dycuckoo {
namespace durability {

/// One entry located inside a checkpoint image (views offsets, not bytes).
struct CheckpointEntryView {
  uint64_t checkpoint_lsn = 0;
  size_t entry_offset = 0;    // where the entry's magic starts
  size_t payload_offset = 0;  // where the snapshot bytes start
  size_t payload_len = 0;
  bool valid = false;  // frame complete and CRC intact

  bool operator==(const CheckpointEntryView&) const = default;
};

class CheckpointStore {
 public:
  /// An unscoped store (single-table deployments), or one scoped to a
  /// fault domain: `scope` (e.g. "shard-00003/") prefixes every kill-point
  /// name the store crosses and is passed to OnIoFlush, so chaos campaigns
  /// can target one shard's checkpoint stream.
  explicit CheckpointStore(std::string scope = "")
      : scope_(std::move(scope)) {}

  /// Writes an entry's payload: appends it to `*out` and sets `*crc` to the
  /// CRC-32 of the bytes it appended.
  using PayloadWriter = std::function<Status(std::string* out, uint32_t* crc)>;

  /// Appends one entry whose payload `write_payload` serializes straight
  /// into the store, consulting the active FaultInjector for I/O faults and
  /// the kill points ckpt.begin / ckpt.mid / ckpt.entry_end (scope-prefixed
  /// when scoped).  The entry CRC is folded from the payload CRC the writer
  /// reports, so the payload is checksummed once.  On a clean injected
  /// failure nothing is persisted and the caller may retry; on a
  /// crash-style fault a partial or corrupted entry is persisted and the
  /// store goes dead.
  Status AppendEntry(uint64_t checkpoint_lsn,
                     const PayloadWriter& write_payload);

  /// Keeps the newest `keep` entries and drops everything older.  Atomic,
  /// like WAL head truncation.  Reads only the entry index, never the
  /// entries' bytes.
  Status PruneToLast(int keep);

  /// Walks `image` front to back, returning every entry found.  A torn or
  /// corrupt entry is returned with valid=false; scanning stops at the
  /// first byte that is not an entry magic (nothing valid can follow in an
  /// append-only store).
  static std::vector<CheckpointEntryView> Scan(const std::string& image);

  bool dead() const { return dead_; }
  const std::string& durable_image() const { return durable_; }
  /// The entries this store appended and still holds, oldest first.  While
  /// the store is alive this equals Scan(durable_image()): only the store
  /// writes its image, and a fault that could leave bytes the index does
  /// not describe leaves the store dead.
  const std::vector<CheckpointEntryView>& entries() const { return entries_; }
  const std::string& scope() const { return scope_; }
  uint64_t entries_written() const { return entries_written_; }
  uint64_t append_failures() const { return append_failures_; }
  uint64_t prunes() const { return prunes_; }

 private:
  /// Scope-prefixed kill-point name (see WalWriter::ScopedName).
  const char* ScopedName(const char* name);

  std::string scope_;
  std::string scoped_name_;  // scratch buffer for ScopedName
  std::string durable_;
  std::vector<CheckpointEntryView> entries_;
  bool dead_ = false;
  uint64_t entries_written_ = 0;
  uint64_t append_failures_ = 0;
  uint64_t prunes_ = 0;
};

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_CHECKPOINT_H_
