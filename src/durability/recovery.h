// Point-in-time crash recovery: newest valid checkpoint + WAL replay.
//
// Recover() rebuilds the table a crashed server would have acknowledged:
//
//   1. scan the checkpoint stream for the newest entry whose frame and CRC
//      are intact (falling back to older entries, then to an empty table);
//   2. validate the WAL header and replay the suffix of records with
//      lsn > checkpoint_lsn, stopping at the last intact record.  Replay
//      runs chunk by chunk, in two phases per chunk of up to kReplayChunk
//      insert/erase records:
//        a. scan: check every record exactly as it is read (LSN contiguity,
//           framing, payload shape) and fold it into the chunk's *last
//           action per key* (WriteFold).  The WAL records writes in
//           admission order, so the last record of a key is the one the
//           server's state reflects;
//        b. apply: land the folded chunk with a few bulk launches (erases,
//           then update-only upserts, then new-key inserts; see
//           dycuckoo/write_fold.h), chunks in LSN order.
//      This equals replaying record by record: inserts are upserts, erases
//      are idempotent, and the bulk calls' key sets are disjoint, so only
//      each key's last record decides its final state.  For the same
//      reasons, replaying a record whose effect the checkpoint already
//      contains is harmless.  A chunk that fails any check returns its
//      error before it touches the table, and a failing bulk call (the
//      post-erase resize included) fails the recovery;
//   3. distinguish a *torn tail* (the log simply stops mid-record — the
//      expected shape after a crash during a group commit; the partial
//      record was never acknowledged, so it is counted and discarded) from
//      *mid-log corruption* (an intact record follows the damage, meaning
//      acknowledged records were lost — reported as DataLoss, never
//      silently skipped).
//
// Step 2 reads the log through internal::ScanWal, the one WAL reader.
// PointLookup() (below; the scrub repair ladder's read path) answers one
// key from the same checkpoint choice and the same scan, so a repair sees
// exactly the records recovery replays, with the same checks.
//
// The returned RecoveryReport is deterministic: two recoveries of the same
// byte images produce identical reports (compare with Digest()).  Its
// counters are per record, not per folded key.

#ifndef DYCUCKOO_DURABILITY_RECOVERY_H_
#define DYCUCKOO_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "durability/checkpoint.h"
#include "durability/log_format.h"
#include "dycuckoo/dynamic_table.h"
#include "dycuckoo/write_fold.h"

namespace dycuckoo {
namespace durability {

/// Identity of the log a recovery is reading: which shard's WAL segment
/// this is.  A single-table deployment can leave it defaulted; a sharded
/// one passes each shard's id and segment name so two shards whose logs
/// happen to hold identical bytes still produce distinguishable reports.
struct RecoverySource {
  uint64_t shard_id = 0;
  std::string segment;  // WAL segment name, e.g. "wal-00003-of-00016.seg"
};

/// One kReshardCutover record replayed from a segment.  Recovery collects
/// these so the sharded layer can promote migration-journal chunk states:
/// a cutover record durable in the chunk's TARGET segment proves the copy
/// finished (the copy is flushed before the cutover record is appended).
struct ReshardCutoverSeen {
  uint64_t generation = 0;
  uint32_t chunk = 0;
  uint32_t shards_from = 0;
  uint32_t shards_to = 0;
};

/// What a recovery did, for operators and for determinism checks.
/// Marked [[nodiscard]]: a dropped report hides replay damage.
struct [[nodiscard]] RecoveryReport {
  uint64_t shard_id = 0;            // identity of the log summarized here
  std::string segment;              // WAL segment name ("" = unsharded)
  uint64_t checkpoint_lsn = 0;      // 0 = no usable checkpoint (empty start)
  uint64_t checkpoints_scanned = 0;
  uint64_t checkpoints_corrupt = 0;
  uint64_t wal_records_scanned = 0;
  uint64_t wal_records_applied = 0;  // state-mutating replays (insert/erase)
  uint64_t wal_records_skipped = 0;  // lsn <= checkpoint_lsn (already covered)
  uint64_t last_lsn = 0;             // highest intact LSN seen (0 = none)
  uint64_t torn_tail_bytes = 0;      // bytes discarded at the torn tail
  std::vector<ReshardCutoverSeen> reshard_cutovers;  // replay order

  /// FNV-1a over every field, the source identity included; equal digests
  /// <=> identical recoveries *of the same log*.  Two shards replaying
  /// byte-identical segments still differ, because the digest covers
  /// shard_id and segment.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(shard_id);
    mix(segment.size());
    for (char c : segment) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    mix(checkpoint_lsn);
    mix(checkpoints_scanned);
    mix(checkpoints_corrupt);
    mix(wal_records_scanned);
    mix(wal_records_applied);
    mix(wal_records_skipped);
    mix(last_lsn);
    mix(torn_tail_bytes);
    mix(reshard_cutovers.size());
    for (const ReshardCutoverSeen& c : reshard_cutovers) {
      mix(c.generation);
      mix(c.chunk);
      mix(c.shards_from);
      mix(c.shards_to);
    }
    return h;
  }

  /// Operator-facing one-report summary (chaos artifacts, heal logs).
  std::string ToString() const {
    std::ostringstream os;
    os << "RecoveryReport{shard=" << shard_id << " segment="
       << (segment.empty() ? "<unsharded>" : segment)
       << " checkpoint_lsn=" << checkpoint_lsn
       << " checkpoints_scanned=" << checkpoints_scanned
       << " checkpoints_corrupt=" << checkpoints_corrupt
       << " wal_scanned=" << wal_records_scanned
       << " wal_applied=" << wal_records_applied
       << " wal_skipped=" << wal_records_skipped
       << " last_lsn=" << last_lsn
       << " torn_tail_bytes=" << torn_tail_bytes
       << " reshard_cutovers=" << reshard_cutovers.size()
       << " digest=" << Digest() << "}";
    return os.str();
  }
};

namespace internal {

/// Insert/erase records folded per replay chunk (see the file comment).
inline constexpr uint64_t kReplayChunk = 1 << 16;

/// True if any offset in [from, image.size()) parses as an intact record —
/// the signature of mid-log corruption rather than a torn tail.
inline bool HasIntactRecordAfter(std::string_view image, size_t from) {
  if (image.size() < kWalFrameHeaderBytes + kWalRecordPrefixBytes) {
    return false;
  }
  size_t last = image.size() - kWalFrameHeaderBytes - kWalRecordPrefixBytes;
  for (size_t off = from; off <= last; ++off) {
    ParsedRecord rec;
    if (ParseFrame(image.data() + off, image.size() - off, &rec) ==
        ParseResult::kOk) {
      return true;
    }
  }
  return false;
}

/// The one reader of a WAL image, shared by Recover and PointLookup.
/// Validates the file header, and that the log still reaches back to
/// `base_lsn` + 1, then checks every record as it is read (framing and CRC,
/// LSN contiguity, payload shape).  Records with lsn <= base_lsn are
/// counted as skipped.  Above it, each insert or erase goes to
/// `on_write(lsn, key, value)` in log order, with `value` null for an
/// erase; a non-OK return from it ends the scan with that status.  Fills
/// the WAL counters and the cutover list of `*report`.  An empty image
/// holds no records.
template <typename Key, typename Value, typename OnWrite>
Status ScanWal(std::string_view wal_image, uint64_t base_lsn,
               RecoveryReport* report, OnWrite&& on_write) {
  if (wal_image.empty()) return Status::OK();
  WalFileHeader header;
  if (ParseWalFileHeader(wal_image.data(), wal_image.size(), &header) !=
      ParseResult::kOk) {
    return Status::DataLoss("recovery: WAL file header corrupt");
  }
  if (header.key_width != sizeof(Key) || header.value_width != sizeof(Value)) {
    return Status::InvalidArgument(
        "recovery: WAL key/value widths do not match this table type");
  }
  if (base_lsn + 1 < header.first_lsn) {
    return Status::DataLoss(
        "recovery: WAL truncated past the newest usable checkpoint "
        "(need lsn " + std::to_string(base_lsn + 1) +
        ", log starts at " + std::to_string(header.first_lsn) + ")");
  }
  size_t offset = kWalFileHeaderBytes;
  uint64_t expected_lsn = header.first_lsn;
  while (offset < wal_image.size()) {
    ParsedRecord rec;
    ParseResult pr = ParseFrame(wal_image.data() + offset,
                                wal_image.size() - offset, &rec);
    if (pr != ParseResult::kOk) {
      if (HasIntactRecordAfter(wal_image, offset + 1)) {
        return Status::DataLoss(
            "recovery: corrupt WAL record at offset " +
            std::to_string(offset) + " with intact records after it");
      }
      report->torn_tail_bytes = wal_image.size() - offset;
      break;
    }
    if (rec.lsn != expected_lsn) {
      return Status::DataLoss(
          "recovery: LSN gap in WAL (expected " +
          std::to_string(expected_lsn) + ", found " +
          std::to_string(rec.lsn) + ")");
    }
    expected_lsn = rec.lsn + 1;
    ++report->wal_records_scanned;
    report->last_lsn = rec.lsn;
    offset += rec.frame_len;
    if (rec.lsn <= base_lsn) {
      ++report->wal_records_skipped;
      continue;
    }
    switch (rec.type) {
      case WalRecordType::kInsert: {
        if (rec.payload_len != sizeof(Key) + sizeof(Value)) {
          return Status::DataLoss("recovery: malformed insert record");
        }
        Key k{};
        Value v{};
        std::memcpy(&k, rec.payload, sizeof(Key));
        std::memcpy(&v, rec.payload + sizeof(Key), sizeof(Value));
        if (k == DynamicTable<Key, Value>::kEmptyKey) {
          return Status::InvalidArgument(
              "recovery: insert of the reserved empty key at lsn " +
              std::to_string(rec.lsn));
        }
        ++report->wal_records_applied;
        DYCUCKOO_RETURN_NOT_OK(on_write(rec.lsn, k, &v));
        break;
      }
      case WalRecordType::kErase: {
        if (rec.payload_len != sizeof(Key)) {
          return Status::DataLoss("recovery: malformed erase record");
        }
        Key k{};
        std::memcpy(&k, rec.payload, sizeof(Key));
        ++report->wal_records_applied;
        DYCUCKOO_RETURN_NOT_OK(on_write(rec.lsn, k, nullptr));
        break;
      }
      case WalRecordType::kReshardCutover: {
        if (rec.payload_len != kReshardCutoverPayloadBytes) {
          return Status::DataLoss("recovery: malformed cutover record");
        }
        ReshardCutoverSeen seen;
        seen.generation = GetU64(rec.payload);
        seen.chunk = GetU32(rec.payload + 8);
        seen.shards_from = GetU32(rec.payload + 12);
        seen.shards_to = GetU32(rec.payload + 16);
        report->reshard_cutovers.push_back(seen);
        break;  // a marker: carries migration evidence, no table state
      }
      case WalRecordType::kResizeBarrier:
      case WalRecordType::kCheckpointMark:
        break;  // markers carry no table state
    }
  }
  return Status::OK();
}

}  // namespace internal

/// Rebuilds a table from a checkpoint image and a WAL image (either may
/// be empty), read in place.  On success `*out` holds the recovered table
/// and `*report` describes the recovery.  Returns DataLoss when
/// acknowledged bytes are provably gone (WAL truncated past the
/// checkpoint, mid-log corruption, unreadable WAL header); a torn tail is
/// NOT an error.
template <typename Key, typename Value>
Status Recover(std::string_view ckpt_image, std::string_view wal_image,
               const DyCuckooOptions& options,
               std::unique_ptr<DynamicTable<Key, Value>>* out,
               RecoveryReport* report, const RecoverySource& source = {}) {
  *report = RecoveryReport{};
  report->shard_id = source.shard_id;
  report->segment = source.segment;
  out->reset();

  // --- 1. newest valid checkpoint -----------------------------------------
  std::unique_ptr<DynamicTable<Key, Value>> table;
  uint64_t checkpoint_lsn = 0;
  std::vector<CheckpointEntryView> entries = CheckpointStore::Scan(ckpt_image);
  report->checkpoints_scanned = entries.size();
  for (auto it = entries.rbegin(); it != entries.rend() && !table; ++it) {
    if (!it->valid) {
      ++report->checkpoints_corrupt;
      continue;
    }
    Status st = DynamicTable<Key, Value>::Load(
        ckpt_image.substr(it->payload_offset, it->payload_len), options,
        &table);
    if (st.ok()) {
      checkpoint_lsn = it->checkpoint_lsn;
    } else {
      // CRC-valid wrapper around an unloadable snapshot: count it and fall
      // back to the previous checkpoint rather than failing recovery.
      ++report->checkpoints_corrupt;
    }
  }
  if (!table) {
    Status created = DynamicTable<Key, Value>::Create(options, &table);
    if (!created.ok()) return created;
  }
  report->checkpoint_lsn = checkpoint_lsn;

  // --- 2. WAL replay: fold each chunk, then apply it in bulk --------------
  WriteFold<Key, Value> fold;
  uint64_t folded = 0;  // insert/erase records in `fold`
  uint64_t chunk_first_lsn = 0;
  uint64_t chunk_last_lsn = 0;
  auto apply_chunk = [&]() -> Status {
    if (folded == 0) return Status::OK();
    Status st = fold.ApplyTo(table.get());
    if (!st.ok()) {
      return Status::Internal(
          "recovery: replay of WAL records at lsn " +
          std::to_string(chunk_first_lsn) + ".." +
          std::to_string(chunk_last_lsn) + " failed: " + st.ToString());
    }
    fold.Clear();
    folded = 0;
    return Status::OK();
  };
  Status scanned = internal::ScanWal<Key, Value>(
      wal_image, checkpoint_lsn, report,
      [&](uint64_t lsn, Key key, const Value* value) -> Status {
        if (value != nullptr) {
          fold.Upsert(key, *value);
        } else {
          fold.Erase(key);  // idempotent; absent key is fine
        }
        if (folded++ == 0) chunk_first_lsn = lsn;
        chunk_last_lsn = lsn;
        return folded == internal::kReplayChunk ? apply_chunk()
                                                : Status::OK();
      });
  DYCUCKOO_RETURN_NOT_OK(scanned);
  DYCUCKOO_RETURN_NOT_OK(apply_chunk());

  *out = std::move(table);
  return Status::OK();
}

/// Recover() of every byte left in the two streams.
template <typename Key, typename Value>
Status Recover(std::istream& checkpoint_stream, std::istream& wal_stream,
               const DyCuckooOptions& options,
               std::unique_ptr<DynamicTable<Key, Value>>* out,
               RecoveryReport* report, const RecoverySource& source = {}) {
  return Recover<Key, Value>(DrainStream(checkpoint_stream),
                             DrainStream(wal_stream), options, out, report,
                             source);
}

/// Outcome of a targeted key read-back from durable state (PointLookup).
enum class PointLookupResult {
  kFound = 0,       // authoritative (key, value) recovered
  kErased = 1,      // the key's last durable action was an erase
  kAbsent = 2,      // durable state has no trace of the key
  kUnreadable = 3,  // Recover() of these images fails
};

/// Re-derives the state of ONE key from a checkpoint image and a WAL image
/// without rebuilding a table, reading them exactly as Recover() does.
/// The base is the newest intact checkpoint entry whose snapshot parses
/// (none: the empty table at LSN 0); then the WAL records after it, seen
/// through Recover's own scan, decide the key (last action wins).
/// kUnreadable exactly when Recover() of the same images fails on their
/// bytes: a corrupt WAL header, a log truncated past the base, mid-log
/// corruption, an LSN gap, a malformed record.
template <typename Key, typename Value>
PointLookupResult PointLookup(const std::string& checkpoint_image,
                              const std::string& wal_image, Key key,
                              Value* value) {
  using Table = DynamicTable<Key, Value>;
  bool found = false;
  bool erased = false;
  Value v{};
  uint64_t base_lsn = 0;
  const std::vector<CheckpointEntryView> entries =
      CheckpointStore::Scan(checkpoint_image);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    typename Table::SnapshotView snap;
    if (!it->valid ||
        !Table::ParseSnapshot(std::string_view(checkpoint_image)
                                  .substr(it->payload_offset, it->payload_len),
                              &snap)
             .ok()) {
      continue;  // fall back to the previous entry, as Recover does
    }
    base_lsn = it->checkpoint_lsn;
    for (uint64_t i = 0; i < snap.count && !found; ++i) {
      if (snap.key(i) == key) {
        found = true;
        v = snap.value(i);
      }
    }
    break;
  }
  RecoveryReport scan;
  Status st = internal::ScanWal<Key, Value>(
      wal_image, base_lsn, &scan, [&](uint64_t, Key k, const Value* w) {
        if (k == key) {
          found = w != nullptr;
          erased = w == nullptr;
          if (found) v = *w;
        }
        return Status::OK();
      });
  if (!st.ok()) return PointLookupResult::kUnreadable;
  if (found) {
    if (value != nullptr) *value = v;
    return PointLookupResult::kFound;
  }
  return erased ? PointLookupResult::kErased : PointLookupResult::kAbsent;
}

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_RECOVERY_H_
