#include "durability/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "durability/log_format.h"
#include "gpusim/fault_injector.h"

namespace dycuckoo {
namespace durability {

namespace {

// Chunk size for checkpoint payload writes.  Small enough that test-sized
// snapshots span several chunks, so the mid-write kill point and torn
// faults land inside a payload rather than degenerating to all-or-nothing.
constexpr size_t kCheckpointChunkBytes = 1024;

Status CrashedStatus() {
  return Status::Unavailable(
      "checkpoint: store dead after simulated crash");
}

}  // namespace

const char* CheckpointStore::ScopedName(const char* name) {
  if (scope_.empty()) return name;
  scoped_name_ = scope_;
  scoped_name_ += name;
  return scoped_name_.c_str();
}

Status CheckpointStore::AppendEntry(uint64_t checkpoint_lsn,
                                    const PayloadWriter& write_payload) {
  if (dead_) return CrashedStatus();
  auto* injector = gpusim::FaultInjector::Active();
  if (injector && injector->OnKillPoint(ScopedName("ckpt.begin"))) {
    dead_ = true;
    return CrashedStatus();
  }

  // Build the entry in place at the end of the image: header, payload, CRC
  // trailer.  Until the healthy path below finishes, only a prefix of it
  // counts as written, and every other outcome cuts the image back to that.
  const size_t start = durable_.size();
  PutU64(&durable_, kCheckpointEntryMagic);
  PutU64(&durable_, checkpoint_lsn);
  PutU64(&durable_, 0);  // payload_len, patched once the payload is in
  uint32_t payload_crc = 0;
  Status st = write_payload(&durable_, &payload_crc);
  if (!st.ok()) {
    durable_.resize(start);
    return st;
  }
  const uint64_t payload_len =
      durable_.size() - start - kCheckpointEntryHeaderBytes;
  std::memcpy(&durable_[start + 16], &payload_len, sizeof(payload_len));
  // The entry CRC covers (lsn, len, payload): checksum the 16 header bytes
  // and fold in the payload's CRC instead of reading the payload again.
  PutU32(&durable_, Crc32Combine(Crc32Update(0, &durable_[start + 8], 16),
                                 payload_crc, payload_len));
  const size_t entry_size = durable_.size() - start;

  gpusim::IoWriteFault fault = injector ? injector->OnIoFlush(scope_.c_str())
                                        : gpusim::IoWriteFault::kNone;
  switch (fault) {
    case gpusim::IoWriteFault::kFailCleanly:
      durable_.resize(start);
      ++append_failures_;
      return Status::Internal(
          "checkpoint: entry write failed (injected); nothing persisted");
    case gpusim::IoWriteFault::kShortWrite: {
      // A whole number of chunks reaches storage, then the process dies.
      size_t chunks = (entry_size + kCheckpointChunkBytes - 1) /
                      kCheckpointChunkBytes;
      size_t keep = injector->NextDraw(/*stream=*/8) % chunks;
      durable_.resize(start + keep * kCheckpointChunkBytes);
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kTornWrite: {
      size_t cut = 1 + injector->NextDraw(/*stream=*/8) % (entry_size - 1);
      durable_.resize(start + cut);
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kBitFlip: {
      uint64_t bit = injector->NextDraw(/*stream=*/9) % (entry_size * 8);
      durable_[start + bit / 8] ^= static_cast<char>(1u << (bit % 8));
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kNone:
      break;
  }

  // Healthy path: the entry is written in chunks, with a crash point once
  // the first chunk is on storage.
  if (injector && injector->OnKillPoint(ScopedName("ckpt.mid"))) {
    durable_.resize(start + std::min(kCheckpointChunkBytes, entry_size));
    dead_ = true;
    return CrashedStatus();
  }
  entries_.push_back({checkpoint_lsn, start,
                      start + kCheckpointEntryHeaderBytes, payload_len,
                      /*valid=*/true});
  DYCUCKOO_DCHECK(entries_ == Scan(durable_));
  ++entries_written_;
  if (injector && injector->OnKillPoint(ScopedName("ckpt.entry_end"))) {
    dead_ = true;
    return CrashedStatus();
  }
  return Status::OK();
}

Status CheckpointStore::PruneToLast(int keep) {
  if (dead_) return CrashedStatus();
  if (keep <= 0) return Status::InvalidArgument("checkpoint: keep must be > 0");
  if (entries_.size() <= static_cast<size_t>(keep)) return Status::OK();
  const size_t drop = entries_.size() - static_cast<size_t>(keep);
  const size_t cut = entries_[drop].entry_offset;
  durable_.erase(0, cut);
  entries_.erase(entries_.begin(), entries_.begin() + drop);
  for (CheckpointEntryView& e : entries_) {
    e.entry_offset -= cut;
    e.payload_offset -= cut;
  }
  DYCUCKOO_DCHECK(entries_ == Scan(durable_));
  ++prunes_;
  return Status::OK();
}

std::vector<CheckpointEntryView> CheckpointStore::Scan(
    const std::string& image) {
  std::vector<CheckpointEntryView> out;
  size_t offset = 0;
  while (offset < image.size()) {
    CheckpointEntryView view;
    view.entry_offset = offset;
    size_t avail = image.size() - offset;
    if (avail < kCheckpointEntryHeaderBytes ||
        GetU64(image.data() + offset) != kCheckpointEntryMagic) {
      // Torn header (or garbage): report it as one invalid trailing entry.
      view.valid = false;
      out.push_back(view);
      break;
    }
    view.checkpoint_lsn = GetU64(image.data() + offset + 8);
    view.payload_len = GetU64(image.data() + offset + 16);
    view.payload_offset = offset + kCheckpointEntryHeaderBytes;
    size_t entry_len = kCheckpointEntryHeaderBytes + view.payload_len + 4;
    if (view.payload_len > image.size() || avail < entry_len) {
      view.valid = false;
      out.push_back(view);
      break;
    }
    uint32_t stored = GetU32(image.data() + offset + entry_len - 4);
    uint32_t actual = Crc32Update(0, image.data() + offset + 8,
                                  entry_len - 8 - 4);
    view.valid = (stored == actual);
    out.push_back(view);
    if (!view.valid) break;  // append-only: nothing trustworthy follows
    offset += entry_len;
  }
  return out;
}

}  // namespace durability
}  // namespace dycuckoo
