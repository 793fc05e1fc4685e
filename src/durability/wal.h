// Write-ahead log writer with group commit.
//
// The serving loop appends one record per acknowledged-to-be write
// (insert/erase), then calls Flush() once per micro-batch — the group
// commit.  Acks are released only after Flush() returns OK, so the durable
// log is always a superset of what clients were told succeeded.
//
// "Durable" here is an in-memory byte string (`durable_image()`), matching
// the repo's simulation philosophy: DeviceArena simulates cudaMalloc
// accounting, VirtualClock simulates elapsed time, and WalWriter simulates
// a log file plus fsync.  Everything interesting about durability — framing,
// torn tails, group-commit batching, truncation, crash recovery — is about
// the *bytes*, and keeping them in memory lets the chaos tests crash and
// recover thousands of times per second with zero filesystem flake.
//
// Crash semantics: injected I/O faults (gpusim::FaultInjector::OnIoFlush)
// and kill points can leave a prefix of a flush durable and mark the writer
// dead.  A dead writer persists nothing further and fails every call —
// the serving layer must stop acknowledging (see TableServer::crashed()).

#ifndef DYCUCKOO_DURABILITY_WAL_H_
#define DYCUCKOO_DURABILITY_WAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "durability/log_format.h"
#include "gpusim/fault_injector.h"

namespace dycuckoo {
namespace durability {

/// A place to cut a log's head: the last record to drop and the offset
/// just past its frame.  The offset counts from the start of the log as
/// first written, so a head truncation in between does not move it.
struct WalCut {
  uint64_t lsn = 0;
  uint64_t offset = 0;
};

template <typename Key, typename Value>
class WalWriter {
 public:
  /// A fresh log whose first record will carry `start_lsn` (1 for a new
  /// deployment; last_recovered_lsn + 1 when restarting after recovery).
  /// `scope` names this log's fault domain (a shard's segment scope, e.g.
  /// "shard-00003/"): it prefixes every kill-point name this writer
  /// crosses and is passed to OnIoFlush, so a chaos campaign can target
  /// one shard's log without touching the others.  Empty = unscoped
  /// (single-table deployments; fully backward compatible).
  explicit WalWriter(uint64_t start_lsn = 1, std::string scope = "")
      : scope_(std::move(scope)),
        next_lsn_(start_lsn),
        durable_lsn_(start_lsn - 1) {
    AppendWalFileHeader(&durable_, sizeof(Key), sizeof(Value), start_lsn);
  }

  // --- Appends (buffered; durable only after Flush) ------------------------

  uint64_t AppendInsert(Key key, Value value) {
    char payload[sizeof(Key) + sizeof(Value)];
    std::memcpy(payload, &key, sizeof(Key));
    std::memcpy(payload + sizeof(Key), &value, sizeof(Value));
    return AppendRecord(WalRecordType::kInsert, payload, sizeof(payload));
  }

  uint64_t AppendErase(Key key) {
    return AppendRecord(WalRecordType::kErase, &key, sizeof(Key));
  }

  uint64_t AppendResizeBarrier(uint64_t capacity_slots) {
    return AppendRecord(WalRecordType::kResizeBarrier, &capacity_slots,
                        sizeof(capacity_slots));
  }

  uint64_t AppendCheckpointMark(uint64_t checkpoint_lsn) {
    return AppendRecord(WalRecordType::kCheckpointMark, &checkpoint_lsn,
                        sizeof(checkpoint_lsn));
  }

  uint64_t AppendReshardCutover(uint64_t generation, uint32_t chunk,
                                uint32_t shards_from, uint32_t shards_to) {
    char payload[kReshardCutoverPayloadBytes];
    std::memcpy(payload, &generation, 8);
    std::memcpy(payload + 8, &chunk, 4);
    std::memcpy(payload + 12, &shards_from, 4);
    std::memcpy(payload + 16, &shards_to, 4);
    return AppendRecord(WalRecordType::kReshardCutover, payload,
                        sizeof(payload));
  }

  // --- Group commit --------------------------------------------------------

  /// Makes every buffered record durable, in order.  One injected-fault
  /// consultation per call.  On a clean injected failure the buffer is
  /// retained and the next Flush() retries; on a crash-style fault a prefix
  /// (possibly torn or bit-flipped) is persisted and the writer goes dead.
  Status Flush() {
    if (dead_) return CrashedStatus();
    const size_t records = pending_ends_.size();
    if (records == 0) return Status::OK();
    auto* injector = gpusim::FaultInjector::Active();
    if (injector && injector->OnKillPoint(ScopedName("wal.commit.before"))) {
      dead_ = true;
      return CrashedStatus();
    }
    gpusim::IoWriteFault fault = injector
                                     ? injector->OnIoFlush(scope_.c_str())
                                     : gpusim::IoWriteFault::kNone;
    switch (fault) {
      case gpusim::IoWriteFault::kFailCleanly:
        ++flush_failures_;
        return Status::Internal(
            "wal: group commit flush failed (injected); " +
            std::to_string(records) + " records retained for retry");
      case gpusim::IoWriteFault::kShortWrite: {
        // A prefix of the batch reaches the log, cut at a record boundary.
        PersistPrefix(injector->NextDraw(/*stream=*/5) % records);
        dead_ = true;
        return CrashedStatus();
      }
      case gpusim::IoWriteFault::kTornWrite: {
        size_t keep = injector->NextDraw(/*stream=*/5) % records;
        PersistPrefix(keep);
        const size_t torn_start = FrameStart(keep);
        const size_t torn_size = pending_ends_[keep] - torn_start;
        size_t cut = 1 + injector->NextDraw(/*stream=*/6) % (torn_size - 1);
        durable_.append(pending_, torn_start, cut);
        dead_ = true;
        return CrashedStatus();
      }
      case gpusim::IoWriteFault::kBitFlip: {
        // The full batch reaches the log, but one bit of the final record
        // is corrupted in flight; the process dies before acking, so the
        // damage is confined to never-acknowledged records at the tail.
        size_t last_start = durable_.size() + FrameStart(records - 1);
        PersistPrefix(records);
        uint64_t bit = injector->NextDraw(/*stream=*/7) %
                       ((durable_.size() - last_start) * 8);
        durable_[last_start + bit / 8] ^= static_cast<char>(1u << (bit % 8));
        dead_ = true;
        return CrashedStatus();
      }
      case gpusim::IoWriteFault::kNone:
        break;
    }
    if (injector && injector->OnKillPoint(ScopedName("wal.commit.mid"))) {
      PersistPrefix((records + 1) / 2);
      dead_ = true;
      return CrashedStatus();
    }
    size_t bytes = PersistPrefix(records);
    pending_.clear();
    pending_ends_.clear();
    ++flushes_;
    records_flushed_ += records;
    bytes_flushed_ += bytes;
    if (injector && injector->OnKillPoint(ScopedName("wal.commit.after"))) {
      // Everything is durable but no ack will ever be released: recovery
      // replays these records, the client retries — idempotent upserts.
      dead_ = true;
      return CrashedStatus();
    }
    return Status::OK();
  }

  /// Where the durable log ends now: its last durable record and the end
  /// of that record's frame.  Taken when a checkpoint covers exactly the
  /// durable records, it is where the log may be cut once that checkpoint
  /// has a successor.
  WalCut durable_cut() const {
    return {durable_lsn_, head_dropped_ + durable_.size()};
  }

  /// Where `cut` lies in durable_image() now.
  uint64_t ImageOffset(const WalCut& cut) const {
    return cut.offset - head_dropped_;
  }

  /// Offset in `image` just past the last frame, walking whole frames from
  /// the file header, whose lsn is <= `lsn`.  Parses (and so checksums)
  /// every frame it passes; TruncateHead's recorded cuts must equal it.
  static uint64_t ScanCut(const std::string& image, uint64_t lsn) {
    uint64_t offset = kWalFileHeaderBytes;
    while (offset < image.size()) {
      ParsedRecord rec;
      if (ParseFrame(image.data() + offset, image.size() - offset, &rec) !=
              ParseResult::kOk ||
          rec.lsn > lsn) {
        break;
      }
      offset += rec.frame_len;
    }
    return offset;
  }

  /// Drops the whole records before `cut` (those with lsn <= cut.lsn) from
  /// the head and advances the file header's first_lsn to cut.lsn + 1.
  /// `cut` must not lie before the current head.  Reads no frame: the cut
  /// was recorded when those records were written.  Atomic (modelled as a
  /// write-temp-then-rename); the kill point fires only after the rename.
  Status TruncateHead(const WalCut& cut) {
    if (dead_) return CrashedStatus();
    const uint64_t offset = ImageOffset(cut);
    DYCUCKOO_DCHECK(offset == ScanCut(durable_, cut.lsn));
    std::string header;
    AppendWalFileHeader(&header, sizeof(Key), sizeof(Value), cut.lsn + 1);
    durable_.replace(0, offset, header);  // in place: no reallocation
    head_dropped_ += offset - kWalFileHeaderBytes;
    ++truncations_;
    auto* injector = gpusim::FaultInjector::Active();
    if (injector && injector->OnKillPoint(ScopedName("wal.truncate.after"))) {
      dead_ = true;
      return CrashedStatus();
    }
    return Status::OK();
  }

  // --- Introspection -------------------------------------------------------

  /// True once a crash-style fault fired; the writer persists nothing more.
  bool dead() const { return dead_; }

  /// This log's fault-domain scope ("" when unscoped).
  const std::string& scope() const { return scope_; }

  /// The log bytes a crash would leave behind.  Feed to Recover().
  const std::string& durable_image() const { return durable_; }

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  size_t pending_records() const { return pending_ends_.size(); }
  uint64_t durable_bytes() const { return durable_.size(); }
  uint64_t flushes() const { return flushes_; }
  uint64_t flush_failures() const { return flush_failures_; }
  uint64_t records_flushed() const { return records_flushed_; }
  uint64_t bytes_flushed() const { return bytes_flushed_; }
  uint64_t truncations() const { return truncations_; }

 private:
  static Status CrashedStatus() {
    return Status::Unavailable("wal: writer dead after simulated crash");
  }

  /// Kill-point name with the fault-domain scope prefixed ("shard-00003/
  /// wal.commit.mid").  Substring filters keep working unscoped — the
  /// unprefixed name is a suffix of the scoped one.
  const char* ScopedName(const char* name) {
    if (scope_.empty()) return name;
    scoped_name_ = scope_;
    scoped_name_ += name;
    return scoped_name_.c_str();
  }

  uint64_t AppendRecord(WalRecordType type, const void* payload, size_t len) {
    uint64_t lsn = next_lsn_++;
    AppendFrame(&pending_, lsn, type, payload, len);
    pending_ends_.push_back(pending_.size());
    return lsn;
  }

  /// Offset of pending record `i`'s frame within `pending_`.
  size_t FrameStart(size_t i) const {
    return i == 0 ? 0 : pending_ends_[i - 1];
  }

  /// Moves the first `count` pending records into the durable image as one
  /// byte range.  Returns the bytes appended.  Does not clear `pending_`
  /// (crash paths leave it as the abandoned in-flight state).
  size_t PersistPrefix(size_t count) {
    const size_t bytes = FrameStart(count);
    durable_.append(pending_, 0, bytes);
    durable_lsn_ += count;
    return bytes;
  }

  std::string scope_;
  std::string scoped_name_;  // scratch for ScopedName (avoids reallocating)
  std::string durable_;
  // Framed records awaiting group commit, back to back, and the end offset
  // of each frame.  Both keep their capacity across commits, so appending
  // a record allocates nothing in the steady state.
  std::string pending_;
  std::vector<size_t> pending_ends_;
  uint64_t next_lsn_;
  uint64_t durable_lsn_;
  bool dead_ = false;
  uint64_t flushes_ = 0;
  uint64_t flush_failures_ = 0;
  uint64_t records_flushed_ = 0;
  uint64_t bytes_flushed_ = 0;
  uint64_t truncations_ = 0;
  // Bytes of records dropped from the head so far: the distance between a
  // WalCut's offset and the same place in durable_.
  uint64_t head_dropped_ = 0;
};

}  // namespace durability
}  // namespace dycuckoo

#endif  // DYCUCKOO_DURABILITY_WAL_H_
