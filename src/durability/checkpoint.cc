#include "durability/checkpoint.h"

#include "common/hash.h"
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
                                    const std::string& snapshot) {
  if (dead_) return CrashedStatus();
  auto* injector = gpusim::FaultInjector::Active();
  if (injector && injector->OnKillPoint(ScopedName("ckpt.begin"))) {
    dead_ = true;
    return CrashedStatus();
  }

  // Assemble the full entry first: header, payload, CRC trailer.
  std::string entry;
  entry.reserve(kCheckpointEntryHeaderBytes + snapshot.size() + 4);
  PutU64(&entry, kCheckpointEntryMagic);
  PutU64(&entry, checkpoint_lsn);
  PutU64(&entry, snapshot.size());
  entry.append(snapshot);
  uint32_t crc = Crc32Update(0, entry.data() + 8, entry.size() - 8);
  PutU32(&entry, crc);

  gpusim::IoWriteFault fault = injector ? injector->OnIoFlush(scope_.c_str())
                                        : gpusim::IoWriteFault::kNone;
  switch (fault) {
    case gpusim::IoWriteFault::kFailCleanly:
      ++append_failures_;
      return Status::Internal(
          "checkpoint: entry write failed (injected); nothing persisted");
    case gpusim::IoWriteFault::kShortWrite: {
      // A whole number of chunks reaches storage, then the process dies.
      size_t chunks = (entry.size() + kCheckpointChunkBytes - 1) /
                      kCheckpointChunkBytes;
      size_t keep = injector->NextDraw(/*stream=*/8) % chunks;
      durable_.append(entry.data(), keep * kCheckpointChunkBytes);
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kTornWrite: {
      size_t cut = 1 + injector->NextDraw(/*stream=*/8) % (entry.size() - 1);
      durable_.append(entry.data(), cut);
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kBitFlip: {
      uint64_t bit = injector->NextDraw(/*stream=*/9) % (entry.size() * 8);
      entry[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      durable_.append(entry);
      dead_ = true;
      return CrashedStatus();
    }
    case gpusim::IoWriteFault::kNone:
      break;
  }

  // Healthy path: chunked append with a crash point once a partial entry
  // is on storage.
  size_t written = std::min(kCheckpointChunkBytes, entry.size());
  durable_.append(entry.data(), written);
  if (injector && injector->OnKillPoint(ScopedName("ckpt.mid"))) {
    dead_ = true;
    return CrashedStatus();
  }
  while (written < entry.size()) {
    size_t n = std::min(kCheckpointChunkBytes, entry.size() - written);
    durable_.append(entry.data() + written, n);
    written += n;
  }
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
  std::vector<CheckpointEntryView> entries = Scan(durable_);
  int valid = 0;
  for (const CheckpointEntryView& e : entries) valid += e.valid ? 1 : 0;
  if (valid <= keep) return Status::OK();
  int to_drop = valid - keep;
  size_t cut = 0;
  for (const CheckpointEntryView& e : entries) {
    if (!e.valid) continue;
    if (to_drop == 0) {
      cut = e.entry_offset;
      break;
    }
    --to_drop;
  }
  durable_.erase(0, cut);
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
