// DyCuckoo: the dynamic two-layer cuckoo hash table (the paper's core).
//
// Components, mapped to the paper:
//  * d subtables of cache-line buckets (Section IV-A, subtable.h)
//  * layer-1 pair hashing bounding FIND/DELETE to two lookups (Section V-A,
//    pair_map.h)
//  * voter-coordinated warp insertion, Algorithm 1 (RunVoterLoop below)
//  * Theorem-1 balance-guided placement (ChooseTarget / ChooseVictim)
//  * single-subtable resizing: conflict-free upsize of the smallest table,
//    merge-downsize of the largest with residual reinsertion (Section IV-B/D)
//  * extensions beyond the paper: mixed-op batches (BulkExecute), snapshots
//    (Save/Load), an overflow stash for exhausted eviction chains (the
//    paper's stated future work), and ablation switches for the two-layer
//    scheme, the voter, and the balance policy (DyCuckooOptions)
//
// Threading model: one host thread drives the table (like a CUDA stream);
// each bulk operation launches a grid of warps that genuinely race on
// buckets.  Concurrent host-side calls on one table are not supported,
// mirroring the paper's batched execution model.

#ifndef DYCUCKOO_DYCUCKOO_DYNAMIC_TABLE_H_
#define DYCUCKOO_DYCUCKOO_DYNAMIC_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/status.h"
#include "dycuckoo/handoff_ring.h"
#include "dycuckoo/options.h"
#include "dycuckoo/pair_map.h"
#include "dycuckoo/stats.h"
#include "dycuckoo/subtable.h"
#include "gpusim/atomics.h"
#include "gpusim/device_arena.h"
#include "gpusim/fault_injector.h"
#include "gpusim/grid.h"
#include "gpusim/sim_counters.h"
#include "gpusim/warp.h"

namespace dycuckoo {

/// Every byte left in `is`, in one string.  It grows with the bytes the
/// stream holds, never with a length read from them.
inline std::string DrainStream(std::istream& is) {
  std::ostringstream out;
  out << is.rdbuf();
  return std::move(out).str();
}

/// \brief Dynamic two-layer cuckoo hash table.
///
/// \tparam Key unsigned integral key; BucketTraits<Key>::kEmptyKey is
///         reserved. \tparam Value trivially copyable value word.
template <typename Key, typename Value>
class DynamicTable {
 public:
  using SubtableT = Subtable<Key, Value>;
  static constexpr int kSlots = SubtableT::kSlots;
  static constexpr Key kEmptyKey = SubtableT::kEmptyKey;

  /// Validates options and builds an empty table.
  static Status Create(const DyCuckooOptions& options,
                       std::unique_ptr<DynamicTable>* out) {
    DYCUCKOO_RETURN_NOT_OK(options.Validate());
    std::unique_ptr<DynamicTable> table(new DynamicTable(options));
    DYCUCKOO_RETURN_NOT_OK(table->Init());
    *out = std::move(table);
    return Status::OK();
  }

  ~DynamicTable() = default;
  DynamicTable(const DynamicTable&) = delete;
  DynamicTable& operator=(const DynamicTable&) = delete;

  // ---------------------------------------------------------------------
  // Batched operations (the paper's execution model).
  // ---------------------------------------------------------------------

  /// Upserts a batch: new keys are inserted, existing keys get their value
  /// overwritten.  With auto_resize the table grows on filled-factor
  /// violation or insertion failure; without it, leftover failures yield
  /// StatusCode::kInsertionFailure and `num_failed` (if given) is set.
  ///
  /// Parallel-batch semantics (shared with the paper's design): if a batch
  /// both re-inserts a resident key and triggers cuckoo evictions that move
  /// that same key, the in-flight displaced copy is invisible to the upsert
  /// probe and the key can end up stored twice (either value is returned by
  /// FIND; ERASE removes both).  Batches that contain the same key twice
  /// have racy last-writer semantics.  Callers needing strict upsert
  /// determinism should batch updates of resident keys separately from
  /// insertions of new keys — update-only batches perform no evictions.
  Status BulkInsert(std::span<const Key> keys, std::span<const Value> values,
                    uint64_t* num_failed = nullptr) {
    if (keys.size() != values.size()) {
      return Status::InvalidArgument("keys/values size mismatch");
    }
    if (num_failed != nullptr) *num_failed = 0;
    if (keys.empty()) return Status::OK();
    return RunInsertBatch(
        InsertBatch{.keys = keys.data(), .values = values.data(),
                    .size = keys.size()},
        num_failed);
  }

  /// Looks up a batch.  `values[i]` receives the value when `found[i] != 0`.
  /// Either output may be nullptr if not wanted.
  void BulkFind(std::span<const Key> keys, Value* values,
                uint8_t* found) const {
    if (keys.empty()) return;
    RunBatch(*this, FindBatch{keys.data(), keys.size(), values, found});
  }

  /// Deletes a batch; `num_erased` (optional) receives the number of keys
  /// actually removed.  Triggers downsizing when theta falls below alpha.
  Status BulkErase(std::span<const Key> keys, uint64_t* num_erased = nullptr) {
    std::atomic<uint64_t> erased{0};
    if (!keys.empty()) {
      RunBatch(*this, EraseBatch{keys.data(), keys.size(), &erased});
    }
    if (num_erased != nullptr) *num_erased = erased.load(kRelaxed);
    if (options_.auto_resize) DYCUCKOO_RETURN_NOT_OK(ResizeToBounds());
    return Status::OK();
  }

  /// One operation of a mixed batch (see BulkExecute).
  struct MixedOp {
    enum class Type : uint8_t { kInsert, kFind, kErase };
    Type type = Type::kFind;
    Key key{};
    Value value{};  ///< insert input; find output
    uint8_t hit = 0;  ///< out: find located / erase removed the key
  };

  /// Executes a batch mixing insert, find and erase in one grid launch.
  ///
  /// The paper notes mixed batches have ambiguous semantics under parallel
  /// execution; the guarantee here is per-op correctness with *no ordering*
  /// between ops of the batch (a find may or may not observe an insert of
  /// the same batch).  Results are written back into `ops`.
  Status BulkExecute(std::span<MixedOp> ops) {
    if (ops.empty()) return Status::OK();
    return RunInsertBatch(MixedBatch{ops.data(), ops.size()},
                          /*num_failed=*/nullptr);
  }

  // ---------------------------------------------------------------------
  // Single-op conveniences (forward to 1-element batches).
  // ---------------------------------------------------------------------

  Status Insert(Key key, Value value) {
    return BulkInsert(std::span<const Key>(&key, 1),
                      std::span<const Value>(&value, 1));
  }

  /// True iff present; on hit writes `*value` when non-null.
  bool Find(Key key, Value* value = nullptr) const {
    Value v{};
    uint8_t hit = 0;
    BulkFind(std::span<const Key>(&key, 1), &v, &hit);
    if (hit && value != nullptr) *value = v;
    return hit != 0;
  }

  /// True iff the key existed and was removed.
  bool Erase(Key key) {
    uint64_t erased = 0;
    Status st = BulkErase(std::span<const Key>(&key, 1), &erased);
    if (!st.ok()) {
      // The erase itself cannot fail — only the post-erase auto-resize
      // maintenance can.  The key is gone either way; surface the
      // maintenance failure in release builds instead of swallowing it.
      DYCUCKOO_LOG(Warning) << "Erase(" << key
                            << "): post-erase maintenance failed: "
                            << st.ToString();
    }
    return erased > 0;
  }

  // ---------------------------------------------------------------------
  // Serialization.
  // ---------------------------------------------------------------------

  /// The one writer of the version-2 snapshot format: magic, format
  /// version, key/value widths, entry count, raw pairs, and a CRC-32
  /// trailer over everything after the magic.  The layout is rebuilt on
  /// Load, so options may differ across the round-trip.
  ///
  /// The image goes to `sink(const char* data, size_t len)` in pieces: the
  /// header, chunks of up to kSnapshotChunkPairs pairs, the trailer.  A
  /// sink that returns false stops the walk; nothing more is offered to
  /// it.  On success `*image_crc` (when given) is the CRC-32 of the whole
  /// image, folded from the trailer's CRC so no byte is checksummed twice.
  template <typename Sink>
  Status WriteSnapshot(Sink&& sink, uint32_t* image_crc = nullptr) const {
    const uint64_t header[5] = {kSnapshotMagicV2, kSnapshotFormatVersion,
                                sizeof(Key), sizeof(Value), size()};
    uint64_t bytes_written = 0;
    auto failed = [&] {
      return Status::Internal("snapshot write failed after " +
                              std::to_string(bytes_written) + " bytes");
    };
    if (!sink(reinterpret_cast<const char*>(header), sizeof(header))) {
      return failed();
    }
    bytes_written += sizeof(header);
    uint32_t crc = Crc32Update(0, &header[1], 4 * sizeof(uint64_t));
    // Pairs are staged into chunks of up to kSnapshotChunkPairs; each chunk
    // is one sink call and one CRC update.
    std::vector<char> staging(
        std::clamp<uint64_t>(size(), 1, kSnapshotChunkPairs) * kPairBytes);
    size_t staged = 0;
    bool sink_ok = true;
    auto write_staged = [&] {
      sink_ok = sink(staging.data(), staged);
      if (!sink_ok) return false;
      bytes_written += staged;
      crc = Crc32Update(crc, staging.data(), staged);
      staged = 0;
      return true;
    };
    ForEachUntil([&](Key k, Value v) {
      if (staged == staging.size() && !write_staged()) return false;
      std::memcpy(staging.data() + staged, &k, sizeof(Key));
      std::memcpy(staging.data() + staged + sizeof(Key), &v, sizeof(Value));
      staged += kPairBytes;
      return true;
    });
    if (!sink_ok || !write_staged() ||
        !sink(reinterpret_cast<const char*>(&crc), sizeof(crc))) {
      return failed();
    }
    if (image_crc != nullptr) {
      // The image is the magic, the body `crc` covers, then the trailer.
      const uint32_t through_body =
          Crc32Combine(Crc32Update(0, &header[0], sizeof(uint64_t)), crc,
                       bytes_written - sizeof(uint64_t));
      *image_crc = Crc32Combine(
          through_body, Crc32Update(0, &crc, sizeof(crc)), sizeof(crc));
    }
    return Status::OK();
  }

  /// WriteSnapshot() into `os`, stopping at the first failed write.
  Status Save(std::ostream& os) const {
    return WriteSnapshot([&os](const char* data, size_t len) {
      os.write(data, static_cast<std::streamsize>(len));
      return os.good();
    });
  }

  /// The pairs of a parsed Save() image, viewed in place (not owned).
  struct SnapshotView {
    const char* pairs = nullptr;  // `count` interleaved (key, value) pairs
    uint64_t count = 0;

    Key key(uint64_t i) const {
      Key k{};
      std::memcpy(&k, pairs + i * kPairBytes, sizeof(Key));
      return k;
    }
    Value value(uint64_t i) const {
      Value v{};
      std::memcpy(&v, pairs + i * kPairBytes + sizeof(Key), sizeof(Value));
      return v;
    }
  };

  /// The one reader of the v2 snapshot format.  Checks the magic, version
  /// and widths, then that the entry count plus the CRC trailer is exactly
  /// the rest of the image (bytes after the trailer are corruption too),
  /// then the CRC.  Nothing is sized from the count before it matches the
  /// image length.
  static Status ParseSnapshot(std::string_view image, SnapshotView* view) {
    constexpr size_t kHeaderBytes = 5 * sizeof(uint64_t);
    uint64_t header[5] = {0, 0, 0, 0, 0};
    if (!image.empty()) {
      std::memcpy(header, image.data(), std::min(image.size(), kHeaderBytes));
    }
    if (image.size() < sizeof(uint64_t) || header[0] != kSnapshotMagicV2) {
      return Status::InvalidArgument("not a DyCuckoo snapshot");
    }
    if (image.size() < kHeaderBytes) {
      return Status::DataLoss("snapshot corrupt: truncated header");
    }
    if (header[1] != kSnapshotFormatVersion) {
      return Status::InvalidArgument("unsupported snapshot format version " +
                                     std::to_string(header[1]));
    }
    if (header[2] != sizeof(Key) || header[3] != sizeof(Value)) {
      return Status::InvalidArgument("snapshot key/value width mismatch");
    }
    const uint64_t count = header[4];
    const size_t body = image.size() - kHeaderBytes;
    if (count > body / kPairBytes) {
      return Status::DataLoss("snapshot corrupt: truncated payload");
    }
    const size_t payload = count * kPairBytes;
    if (body - payload < sizeof(uint32_t)) {
      return Status::DataLoss("snapshot corrupt: missing CRC trailer");
    }
    if (body - payload > sizeof(uint32_t)) {
      return Status::DataLoss(
          "snapshot corrupt: " +
          std::to_string(body - payload - sizeof(uint32_t)) +
          " bytes after the CRC trailer");
    }
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, image.data() + kHeaderBytes + payload,
                sizeof(stored_crc));
    if (Crc32Update(0, image.data() + sizeof(uint64_t),
                    kHeaderBytes - sizeof(uint64_t) + payload) != stored_crc) {
      return Status::DataLoss("snapshot corrupt: CRC mismatch");
    }
    *view = SnapshotView{image.data() + kHeaderBytes, count};
    return Status::OK();
  }

  /// Rebuilds a table from a Save() image under the given options.  The
  /// image is parsed whole (ParseSnapshot) before a table exists, so a
  /// corrupt image costs no device memory and never hands the caller a
  /// partially-populated table.
  static Status Load(std::string_view image, const DyCuckooOptions& options,
                     std::unique_ptr<DynamicTable>* out) {
    SnapshotView snap;
    DYCUCKOO_RETURN_NOT_OK(ParseSnapshot(image, &snap));
    std::unique_ptr<DynamicTable> table;
    DYCUCKOO_RETURN_NOT_OK(Create(options, &table));
    // Size once, then insert the image as one batch.  Every batch ends in
    // ResizeToBounds, so smaller batches would shrink a table sized for the
    // whole image after the first one and regrow it over the later ones.
    if (table->options_.auto_resize) {
      DYCUCKOO_RETURN_NOT_OK(table->Reserve(snap.count));
    }
    std::vector<Key> keys(snap.count);
    std::vector<Value> values(snap.count);
    for (uint64_t i = 0; i < snap.count; ++i) {
      keys[i] = snap.key(i);
      values[i] = snap.value(i);
    }
    DYCUCKOO_RETURN_NOT_OK(table->BulkInsert(keys, values));
    *out = std::move(table);
    return Status::OK();
  }

  /// Load() of every byte left in `is`.
  static Status Load(std::istream& is, const DyCuckooOptions& options,
                     std::unique_ptr<DynamicTable>* out) {
    return Load(DrainStream(is), options, out);
  }

  // ---------------------------------------------------------------------
  // Whole-table operations.
  // ---------------------------------------------------------------------

  /// Removes every entry.  Capacity is kept (call ResizeToBounds or rely on
  /// the next batch to shrink it).
  void Clear() {
    for (auto& t : tables_) {
      grid_->LaunchWarps(t.num_buckets(), [&](uint64_t b) {
        for (int s = 0; s < kSlots; ++s) {
          t.StoreKey(b, s, kEmptyKey);
        }
        gpusim::CountBucketWrite();
      });
      t.SetSize(0);
    }
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      StashStoreKey(i, kEmptyKey);
    }
    for (auto& s : stash_state_) s.store(kStashVacant, std::memory_order_relaxed);
    stash_size_.store(0, std::memory_order_relaxed);
    ring_.Clear();
  }

  /// Visits every stored pair on the host thread (no particular order).
  /// The callback must not mutate the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachUntil([&fn](Key k, Value v) {
      fn(k, v);
      return true;
    });
  }

  /// Like ForEach, but the callback returns false to stop the walk early
  /// (e.g. Save() aborting on the first failed stream write).
  template <typename Fn>
  void ForEachUntil(Fn&& fn) const {
    for (const auto& t : tables_) {
      for (uint64_t b = 0; b < t.num_buckets(); ++b) {
        for (int s = 0; s < kSlots; ++s) {
          Key k = t.KeyAt(b, s);
          if (k != kEmptyKey && !fn(k, t.ValueAt(b, s))) return;
        }
      }
    }
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      Key k = stash_keys_[i].load(std::memory_order_relaxed);
      if (k != kEmptyKey &&
          !fn(k, stash_values_[i].load(std::memory_order_relaxed))) {
        return;
      }
    }
  }

  /// Grows until at least `entries` fit under the upper bound (avoids
  /// resize work during a known-size ingest).
  Status Reserve(uint64_t entries) {
    for (int guard = 0; guard < 64; ++guard) {
      uint64_t cap = capacity_slots();
      if (static_cast<double>(entries) <=
          options_.upper_bound * static_cast<double>(cap)) {
        return Status::OK();
      }
      DYCUCKOO_RETURN_NOT_OK(UpsizeInternal());
    }
    return Status::CapacityExceeded("Reserve could not reach target");
  }

  // ---------------------------------------------------------------------
  // Resizing (paper Section IV-B/D).
  // ---------------------------------------------------------------------

  /// Repeatedly resizes one subtable at a time until theta is in
  /// [lower_bound, upper_bound] (or no further resize is possible).
  ///
  /// Best-effort: resizing is maintenance, so running out of device memory
  /// (or a downsize rolling back) leaves the table as-is and returns OK —
  /// the condition is recorded in stats and retried on the next trigger.
  Status ResizeToBounds() {
    for (int iter = 0; iter < kMaxResizeIterations; ++iter) {
      double theta = filled_factor();
      if (theta > options_.upper_bound) {
        Status st = UpsizeInternal();
        if (st.IsOutOfMemory()) {
          stats_.resize_oom_skips.fetch_add(1, kRelaxed);
          return Status::OK();
        }
        DYCUCKOO_RETURN_NOT_OK(st);
      } else if (theta < options_.lower_bound && CanDownsize()) {
        bool progressed = false;
        Status st = DownsizeInternal(&progressed);
        if (st.IsOutOfMemory()) {
          stats_.resize_oom_skips.fetch_add(1, kRelaxed);
          return Status::OK();
        }
        DYCUCKOO_RETURN_NOT_OK(st);
        if (!progressed) return Status::OK();  // rolled back; don't loop
      } else {
        return Status::OK();
      }
    }
    return Status::OK();
  }

  /// Doubles the smallest subtable with the conflict-free split kernel.
  Status Upsize() { return UpsizeInternal(); }

  /// Halves the largest subtable, reinserting overflow into the others.
  /// Returns OutOfMemory if the merged subtable cannot be allocated, and OK
  /// if the merge rolled back (check stats().downsize_rollbacks); in both
  /// cases the table is unchanged and no key is lost.
  Status Downsize() {
    if (!CanDownsize()) {
      return Status::InvalidArgument("table is already at minimum size");
    }
    bool progressed = false;
    return DownsizeInternal(&progressed);
  }

  // ---------------------------------------------------------------------
  // Introspection.
  // ---------------------------------------------------------------------

  const DyCuckooOptions& options() const { return options_; }
  int num_subtables() const { return static_cast<int>(tables_.size()); }

  /// Total stored entries (sum of m_i, plus any stashed overflow).
  uint64_t size() const {
    uint64_t total = stash_size_.load(std::memory_order_relaxed);
    for (const auto& t : tables_) total += t.size();
    return total;
  }

  /// Entries currently parked in the overflow stash.
  uint64_t stash_size() const {
    return stash_size_.load(std::memory_order_relaxed);
  }

  /// Displaced pairs currently parked in the eviction handoff ring.
  /// Non-zero only while an insert launch is in flight (the post-launch
  /// sweep re-homes leftovers), so at rest this returns 0.
  uint64_t handoff_size() const { return ring_.count(); }

  /// Total slot capacity (sum of n_i).
  uint64_t capacity_slots() const {
    uint64_t total = 0;
    for (const auto& t : tables_) total += t.num_slots();
    return total;
  }

  /// theta = size / capacity.
  double filled_factor() const {
    uint64_t cap = capacity_slots();
    return cap == 0 ? 0.0 : static_cast<double>(size()) / cap;
  }

  uint64_t subtable_size(int i) const { return tables_[i].size(); }
  uint64_t subtable_slots(int i) const { return tables_[i].num_slots(); }
  uint64_t subtable_buckets(int i) const { return tables_[i].num_buckets(); }
  double subtable_filled_factor(int i) const {
    return tables_[i].filled_factor();
  }

  /// Device bytes occupied by all subtables (and the stash, if any).
  uint64_t memory_bytes() const {
    uint64_t total =
        stash_keys_.size() * (sizeof(Key) + sizeof(Value) + sizeof(uint8_t));
    for (const auto& t : tables_) total += t.memory_bytes();
    return total;
  }

  const TableStats& stats() const { return stats_; }

  /// All stored pairs (test/debug; not safe against concurrent kernels).
  std::vector<std::pair<Key, Value>> Dump() const {
    std::vector<std::pair<Key, Value>> out;
    out.reserve(size());
    ForEach([&out](Key k, Value v) { out.emplace_back(k, v); });
    return out;
  }

  /// Structural invariant checker used by tests: size-ladder property,
  /// size-counter consistency, placement consistency (every key sits in a
  /// bucket of a subtable of its layer-1 pair), and global key uniqueness.
  Status Validate() const {
    uint64_t min_b = UINT64_MAX, max_b = 0;
    for (const auto& t : tables_) {
      min_b = std::min(min_b, t.num_buckets());
      max_b = std::max(max_b, t.num_buckets());
    }
    if (max_b > 2 * min_b) {
      return Status::Internal("subtable ladder violated: max " +
                              std::to_string(max_b) + " buckets vs min " +
                              std::to_string(min_b));
    }
    std::vector<Key> seen;
    seen.reserve(size());
    for (int i = 0; i < num_subtables(); ++i) {
      const auto& t = tables_[i];
      uint64_t occupied = 0;
      for (uint64_t b = 0; b < t.num_buckets(); ++b) {
        for (int s = 0; s < kSlots; ++s) {
          Key k = t.KeyAt(b, s);
          if (t.TagAt(b, s) != SubtableT::ExpectedTag(k, t.ValueAt(b, s))) {
            return Status::DataLoss("integrity tag mismatch in subtable " +
                                    std::to_string(i) + " bucket " +
                                    std::to_string(b) + " slot " +
                                    std::to_string(s));
          }
          if (k == kEmptyKey) continue;
          ++occupied;
          if (t.BucketIndex(k) != b) {
            return Status::Internal("key in wrong bucket");
          }
          if (options_.enable_two_layer &&
              !pair_map_.PairFor(static_cast<uint64_t>(k)).Contains(i)) {
            return Status::Internal("key outside its layer-1 pair");
          }
          seen.push_back(k);
        }
      }
      if (occupied != t.size()) {
        return Status::Internal(
            "size counter mismatch in subtable " + std::to_string(i) + ": " +
            std::to_string(t.size()) + " vs " + std::to_string(occupied));
      }
    }
    uint64_t stash_count = 0;
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      Key k = stash_keys_[i].load(std::memory_order_relaxed);
      uint32_t state = stash_state_[i].load(std::memory_order_relaxed);
      if (stash_tags_[i].load(std::memory_order_relaxed) !=
          SubtableT::ExpectedTag(
              k, stash_values_[i].load(std::memory_order_relaxed))) {
        return Status::DataLoss("integrity tag mismatch in stash slot " +
                                std::to_string(i));
      }
      if (k == kEmptyKey) {
        if (state != kStashVacant) {
          return Status::Internal("vacant stash slot with non-vacant state");
        }
        continue;
      }
      if (state != kStashLive) {
        return Status::Internal("occupied stash slot not in live state");
      }
      ++stash_count;
      seen.push_back(k);
    }
    if (stash_count != stash_size_.load(std::memory_order_relaxed)) {
      return Status::Internal("stash size counter mismatch");
    }
    // Every launch sweeps chain leftovers before returning, so a table at
    // rest must have no parked victims.
    if (ring_.count() != 0) {
      return Status::Internal("handoff ring not empty at rest: " +
                              std::to_string(ring_.count()) + " entries");
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return Status::Internal("duplicate key stored");
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------------
  // Online invariant scrubbing (serving-layer self-checking).
  //
  // Unlike Validate() — a read-only test oracle that fails fast — the
  // scrubber is an incremental *repair* pass designed to run between
  // batches in production: it walks a bounded slice of buckets per call,
  // re-homes any pair stored outside its probe set (so FIND's <= 2-bucket
  // guarantee holds for every key), re-synchronises the stash occupancy
  // counter, and reports whether theta currently honours [alpha, beta].
  // Must be called from the host thread with no kernels in flight (the
  // same threading contract as every other host-side entry point).
  // ---------------------------------------------------------------------

  /// What one scrub slice (or full pass) observed and fixed.  Marked
  /// [[nodiscard]]: a dropped report hides corruption_unrepairable.
  struct [[nodiscard]] ScrubReport {
    uint64_t buckets_scanned = 0;
    uint64_t misplaced_found = 0;    ///< pairs stored outside their probe set
    uint64_t misplaced_repaired = 0; ///< of those, re-homed (rest stashed)
    uint64_t stash_fixes = 0;        ///< stash size counter re-synchronised
    uint64_t duplicates_collapsed = 0; ///< shadowed extra copies removed
    uint64_t corrupted_slots = 0;    ///< integrity-tag mismatches found
    /// Of the corrupted slots, those whose stored key itself is suspect
    /// (empty slot, or a key outside the slot's probe set): the original
    /// key cannot be recovered from device memory alone, so only a full
    /// repair from durable state can make the shard whole again.
    uint64_t corrupted_unattributable = 0;
    /// Keys of corrupted-but-attributable slots, unpublished by the scrub;
    /// the serving layer re-derives their authoritative value from the
    /// checkpoint + WAL and re-inserts (see TableServer::ScrubSlice).
    std::vector<Key> corrupted_keys;
    bool filled_factor_ok = true;    ///< theta within [alpha, beta]

    void MergeFrom(const ScrubReport& o) {
      buckets_scanned += o.buckets_scanned;
      misplaced_found += o.misplaced_found;
      misplaced_repaired += o.misplaced_repaired;
      stash_fixes += o.stash_fixes;
      duplicates_collapsed += o.duplicates_collapsed;
      corrupted_slots += o.corrupted_slots;
      corrupted_unattributable += o.corrupted_unattributable;
      corrupted_keys.insert(corrupted_keys.end(), o.corrupted_keys.begin(),
                            o.corrupted_keys.end());
      filled_factor_ok = filled_factor_ok && o.filled_factor_ok;
    }
  };

  /// Scrubs up to `max_buckets` buckets of subtable `table_idx` starting at
  /// `begin_bucket`.  A stored pair violates placement when it sits in a
  /// bucket other than BucketIndex(key) or (two-layer mode) in a subtable
  /// outside its layer-1 pair; violators are removed under the bucket lock
  /// and re-inserted through the normal path (landing in their correct
  /// bucket, or the stash as a last resort — never dropped).
  ScrubReport ScrubBuckets(int table_idx, uint64_t begin_bucket,
                           uint64_t max_buckets) {
    ScrubReport report;
    SubtableT& t = tables_[table_idx];
    const uint64_t end =
        std::min(t.num_buckets(), begin_bucket + max_buckets);
    std::vector<Key> evicted_keys;
    std::vector<Value> evicted_values;
    for (uint64_t b = begin_bucket; b < end; ++b) {
      ++report.buckets_scanned;
      // No kernels are in flight, so only injected TryLock failures (capped
      // below certainty) contend here; the spin always terminates.
      while (!t.lock(b).TryLock()) {
      }
      gpusim::CountBucketRead();
      for (int s = 0; s < kSlots; ++s) {
        Key k = t.KeyAt(b, s);
        // Integrity check FIRST: a slot whose tag disagrees with its
        // contents holds flipped bits, and none of its words can be
        // trusted.  Running the structural checks on it would "repair" a
        // corrupted key into a legitimate-looking home — laundering the
        // corruption instead of catching it.
        if (t.TagAt(b, s) != SubtableT::ExpectedTag(k, t.ValueAt(b, s))) {
          ++report.corrupted_slots;
          // The stored key is trustworthy only if it is non-empty AND the
          // struck slot is inside its probe set (a flipped key bit almost
          // surely hashes elsewhere).  Then the flip was in the value (or
          // the tag itself) and durability can re-derive the truth by key.
          bool attributable =
              k != kEmptyKey && t.BucketIndex(k) == b &&
              (!options_.enable_two_layer ||
               pair_map_.PairFor(static_cast<uint64_t>(k)).Contains(table_idx));
          if (attributable) {
            report.corrupted_keys.push_back(k);
          } else {
            ++report.corrupted_unattributable;
          }
          // Unpublish: a corrupted pair must never be served again.  The
          // delta-maintained StoreKey plus a quiescent resync restores the
          // tag invariant for the now-empty slot.
          if (k != kEmptyKey) {
            t.StoreKey(b, s, kEmptyKey);
            t.AddSize(-1);
          }
          t.ResyncTag(b, s);
          gpusim::CountBucketWrite();
          continue;
        }
        if (k == kEmptyKey) continue;
        bool wrong_bucket = t.BucketIndex(k) != b;
        bool wrong_table =
            options_.enable_two_layer &&
            !pair_map_.PairFor(static_cast<uint64_t>(k)).Contains(table_idx);
        if (!wrong_bucket && !wrong_table) {
          // Correctly placed — but a second, equally valid copy may exist
          // in an earlier-probed candidate bucket (a duplicate born from a
          // racing eviction chain).  FIND stops at the first hit, so the
          // earlier copy is the live one; this shadowed copy is removed.
          if (ShadowedByEarlierCandidate(k, table_idx)) {
            t.StoreKey(b, s, kEmptyKey);
            gpusim::CountBucketWrite();
            t.AddSize(-1);
            ++report.duplicates_collapsed;
          }
          continue;
        }
        ++report.misplaced_found;
        evicted_keys.push_back(k);
        evicted_values.push_back(t.ValueAt(b, s));
        t.StoreKey(b, s, kEmptyKey);
        gpusim::CountBucketWrite();
        t.AddSize(-1);
      }
      t.lock(b).Unlock();
    }
    if (!evicted_keys.empty()) {
      // Partner-checked reinsertion: if a correct copy already exists the
      // misplaced one was a duplicate and the reinsert collapses into an
      // update, removing the duplicate for good.
      FailBuffer fail(evicted_keys.size());
      RunBatch(*this, InsertBatch{.keys = evicted_keys.data(),
                                  .values = evicted_values.data(),
                                  .size = evicted_keys.size()},
               &fail);
      report.misplaced_repaired = evicted_keys.size() - fail.count();
      for (uint64_t i = 0; i < fail.count(); ++i) {
        ForceStash(fail.keys()[i], fail.values()[i]);
        stats_.recovery_spills.fetch_add(1, kRelaxed);
      }
    }
    // Below-alpha is only actionable when a downsize is still possible; a
    // near-empty minimum-size table is healthy, not in violation.
    double theta = filled_factor();
    report.filled_factor_ok =
        theta <= options_.upper_bound &&
        (theta >= options_.lower_bound || !CanDownsize());
    stats_.scrub_buckets_scanned.fetch_add(report.buckets_scanned, kRelaxed);
    stats_.scrub_misplaced_found.fetch_add(report.misplaced_found, kRelaxed);
    stats_.scrub_misplaced_repaired.fetch_add(report.misplaced_repaired,
                                              kRelaxed);
    if (report.duplicates_collapsed) {
      stats_.scrub_duplicates_collapsed.fetch_add(report.duplicates_collapsed,
                                                  kRelaxed);
    }
    if (report.corrupted_slots) {
      stats_.scrub_corrupted_slots.fetch_add(report.corrupted_slots, kRelaxed);
      DYCUCKOO_LOG(Warning) << "scrub: " << report.corrupted_slots
                            << " corrupted slot(s) in subtable " << table_idx
                            << " (" << report.corrupted_unattributable
                            << " unattributable)";
    }
    return report;
  }

  /// True when key `k` also resides in a candidate bucket that FIND probes
  /// *before* subtable `table_idx` — i.e. the copy in `table_idx` can never
  /// be returned by a lookup and is safe to collapse.
  bool ShadowedByEarlierCandidate(Key k, int table_idx) const {
    return WalkCandidates(k, /*skip=*/-1, /*stop=*/table_idx,
                          [](int, uint64_t, int) { return true; });
  }

  /// Re-counts stash occupancy against the stash_size_ counter and repairs
  /// the counter on mismatch (a mismatch indicates a lost update; the slots
  /// themselves are the ground truth).
  void ScrubStash(ScrubReport* report) {
    // Integrity check first, mirroring ScrubBuckets: a mismatched stash
    // slot is unpublished before any structural repair can launder it.
    // The stash has no placement invariant to cross-check the key against,
    // so even a non-empty key is only *probably* intact — the durability
    // point-lookup downstream is the arbiter (an absent key escalates to a
    // full-shard repair; see docs/robustness.md for the residual risk).
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      Key k = stash_keys_[i].load(std::memory_order_relaxed);
      Value v = stash_values_[i].load(std::memory_order_relaxed);
      if (stash_tags_[i].load(std::memory_order_relaxed) ==
          SubtableT::ExpectedTag(k, v)) {
        continue;
      }
      ++report->corrupted_slots;
      if (k != kEmptyKey) {
        report->corrupted_keys.push_back(k);
        StashStoreKey(i, kEmptyKey);
        stash_state_[i].store(kStashVacant, std::memory_order_relaxed);
        stash_size_.fetch_sub(1, kRelaxed);
      } else {
        ++report->corrupted_unattributable;
      }
      // dylint:allow(tag-discipline, "quiescent repair: stash scrub runs host-side with no kernels in flight, resealing the just-unpublished slot")
      stash_tags_[i].store(
          SubtableT::ExpectedTag(
              stash_keys_[i].load(std::memory_order_relaxed),
              stash_values_[i].load(std::memory_order_relaxed)),
          std::memory_order_relaxed);
      stats_.scrub_corrupted_slots.fetch_add(1, kRelaxed);
    }
    // A stash entry whose key also lives in a candidate bucket is shadowed
    // (FIND probes buckets before the stash) — collapse it.
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      Key k = stash_keys_[i].load(std::memory_order_relaxed);
      if (k == kEmptyKey) continue;
      if (ShadowedByEarlierCandidate(k, /*table_idx=*/-1)) {
        StashStoreKey(i, kEmptyKey);
        stash_state_[i].store(kStashVacant, std::memory_order_relaxed);
        stash_size_.fetch_sub(1, kRelaxed);
        ++report->duplicates_collapsed;
        stats_.scrub_duplicates_collapsed.fetch_add(1, kRelaxed);
      }
    }
    uint64_t occupied = 0;
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      bool live = stash_keys_[i].load(std::memory_order_relaxed) != kEmptyKey;
      if (live) ++occupied;
      // Keys are the ground truth; re-sync the writer-coordination state
      // with them (a crashed publish could leave a stale claim behind).
      stash_state_[i].store(live ? kStashLive : kStashVacant,
                            std::memory_order_relaxed);
    }
    uint64_t counted = stash_size_.load(std::memory_order_relaxed);
    if (counted != occupied) {
      stash_size_.store(occupied, std::memory_order_relaxed);
      ++report->stash_fixes;
      stats_.scrub_stash_fixes.fetch_add(1, kRelaxed);
      DYCUCKOO_LOG(Warning) << "scrub: stash counter " << counted
                            << " re-synchronised to occupancy " << occupied;
    }
  }

  /// One full scrub pass: every bucket of every subtable plus the stash.
  ScrubReport ScrubAll() {
    ScrubReport total;
    for (int i = 0; i < num_subtables(); ++i) {
      total.MergeFrom(ScrubBuckets(i, 0, tables_[i].num_buckets()));
    }
    ScrubStash(&total);
    MarkScrubPass();
    return total;
  }

  /// Records a completed full scrub sweep in stats (incremental scrubbers
  /// call this when their cursor wraps; ScrubAll calls it itself).
  void MarkScrubPass() { stats_.scrub_passes.fetch_add(1, kRelaxed); }

  /// Re-publishes a pair whose slot the scrubber unpublished as corrupted,
  /// using the authoritative value the serving layer re-derived from the
  /// checkpoint + WAL.  Partner-checked, so if some copy of the key
  /// survived elsewhere the repair collapses into an update.  Host-side,
  /// no kernels in flight.
  void RepairCorruptedPair(Key key, Value value) {
    FailBuffer fail(1);
    RunBatch(*this, InsertBatch{.keys = &key, .values = &value, .size = 1},
             &fail);
    for (uint64_t i = 0; i < fail.count(); ++i) {
      ForceStash(fail.keys()[i], fail.values()[i]);
      stats_.recovery_spills.fetch_add(1, kRelaxed);
    }
    stats_.scrub_repaired_from_wal.fetch_add(1, kRelaxed);
  }

  /// Records corruption that durable state could not resolve (the caller
  /// is expected to degrade the shard; see TableServer::ScrubSlice).
  void NoteUnrepairableCorruption(uint64_t n) {
    if (n) stats_.scrub_unrepairable.fetch_add(n, kRelaxed);
  }

  /// TEST HOOK: XORs one stored bit of the slot currently holding `key` —
  /// in its key word (region 0), value word (region 1) or integrity tag
  /// (region 2) — bypassing the delta-maintained mutators.  This plants
  /// exactly the silent device-memory corruption the tag line exists to
  /// catch.  Buckets are searched first, then the stash.  Returns false
  /// when the key is not resident.
  bool CorruptSlotBitForTest(Key key, int region, int bit = 0) {
    if (key == kEmptyKey) return false;
    if (WalkCandidates(key, /*skip=*/-1, /*stop=*/-1,
                       [&](int t, uint64_t loc, int s) {
                         tables_[t].CorruptBitForTest(loc, s, region, bit);
                         return true;
                       })) {
      return true;
    }
    return ScanStash(key, /*counted=*/false, [&](size_t i) {
      if (region == 0) {
        Key k = stash_keys_[i].load(std::memory_order_relaxed);
        FlipBit(&k, bit);
        stash_keys_[i].store(k, std::memory_order_relaxed);
      } else if (region == 1) {
        Value v = stash_values_[i].load(std::memory_order_relaxed);
        FlipBit(&v, bit);
        stash_values_[i].store(v, std::memory_order_relaxed);
      } else {
        stash_tags_[i].fetch_xor(static_cast<uint8_t>(1u << (bit % 8)),
                                 std::memory_order_relaxed);
      }
      return true;
    });
  }

  /// TEST HOOK: stores (key, value) directly into a bucket *outside* the
  /// key's probe set, bypassing the insert path — simulating the silent
  /// placement corruption (bit-flipped pointer walks, lost eviction
  /// updates) the scrubber exists to catch.  Size counters are kept
  /// consistent so only the placement invariant is violated.  Returns
  /// false when no wrong home with a free slot exists.
  bool PlantMisplacedPairForTest(Key key, Value value) {
    if (key == kEmptyKey) return false;
    for (int t = 0; t < num_subtables(); ++t) {
      SubtableT& table = tables_[t];
      if (table.num_buckets() < 2) continue;
      uint64_t wrong = (table.BucketIndex(key) + 1) % table.num_buckets();
      while (!table.lock(wrong).TryLock()) {
      }
      for (int s = 0; s < kSlots; ++s) {
        if (table.KeyAt(wrong, s) == kEmptyKey) {
          table.StoreSlot(wrong, s, key, value);
          table.AddSize(1);
          table.lock(wrong).Unlock();
          return true;
        }
      }
      table.lock(wrong).Unlock();
    }
    return false;
  }

  /// TEST HOOK: plants a duplicate copy of an already-stored key into a
  /// *later* candidate bucket (or the stash), reproducing the shadowed
  /// duplicates an interrupted eviction chain can leave behind.  The copy
  /// is correctly placed for its own bucket, so only the global-uniqueness
  /// invariant is violated; FIND still returns the earlier copy.  Returns
  /// false if the key is absent or no later candidate (or stash slot) has
  /// room.
  bool PlantShadowedDuplicateForTest(Key key, Value stale_value,
                                     bool into_stash = false) {
    if (key == kEmptyKey) return false;
    int home = -1;
    if (!WalkCandidates(key, /*skip=*/-1, /*stop=*/-1,
                        [&](int t, uint64_t, int) {
                          home = t;
                          return true;
                        })) {
      return false;
    }
    if (into_stash) {
      for (size_t i = 0; i < stash_keys_.size(); ++i) {
        if (stash_keys_[i].load(std::memory_order_relaxed) == kEmptyKey) {
          StashStoreValue(i, stale_value);
          StashStoreKey(i, key);
          stash_state_[i].store(kStashLive, std::memory_order_relaxed);
          stash_size_.fetch_add(1, kRelaxed);
          return true;
        }
      }
      return false;
    }
    // The candidates FIND reaches only after `home`.
    int candidates[16];
    const int n_cand = CandidateTables(key, candidates);
    const int* after_home = std::find(candidates, candidates + n_cand, home);
    for (int c = static_cast<int>(after_home - candidates) + 1; c < n_cand;
         ++c) {
      SubtableT& t = tables_[candidates[c]];
      uint64_t loc = t.BucketIndex(key);
      while (!t.lock(loc).TryLock()) {
      }
      for (int s = 0; s < kSlots; ++s) {
        if (t.KeyAt(loc, s) == kEmptyKey) {
          t.StoreSlot(loc, s, key, stale_value);
          t.AddSize(1);
          t.lock(loc).Unlock();
          return true;
        }
      }
      t.lock(loc).Unlock();
    }
    return false;
  }

  /// TEST HOOK: displaces a resident pair out of its bucket into the
  /// handoff ring, freezing the exact mid-chain state a real eviction
  /// passes through while a victim is in flight (bucket slot vacated, pair
  /// findable only via the ring).  Returns true when the key was
  /// bucket-resident and the ring had room.  Reconcile afterwards with
  /// SweepHandoffForTest() — or exercise FIND/DELETE/upsert against the
  /// parked copy first.
  bool ParkVictimForTest(Key key) {
    if (key == kEmptyKey) return false;
    bool parked = false;
    WalkCandidates(key, /*skip=*/-1, /*stop=*/-1,
                   [&](int table_idx, uint64_t loc, int s) {
      SubtableT& t = tables_[table_idx];
      while (!t.lock(loc).TryLock()) {
      }
      int slot = -1;
      uint64_t word = 0;
      parked = ring_.Park(key, t.ValueAt(loc, s), &slot, &word);
      if (parked) {
        stats_.parked_victims.fetch_add(1, kRelaxed);
        t.StoreKey(loc, s, kEmptyKey);
      }
      t.lock(loc).Unlock();
      // In-flight victims are uncounted (a real swap is count-neutral:
      // the incoming pair takes the slot this hook leaves empty).
      if (parked) t.AddSize(-1);
      return true;
    });
    return parked;
  }

  /// TEST HOOK: runs the post-launch handoff reconciliation (claimed
  /// entries dropped, survivors force-stashed), restoring the at-rest
  /// invariant that the ring is empty.
  void SweepHandoffForTest() { SweepHandoffLeftovers(nullptr); }

 private:
  static constexpr int kMaxInsertRetryRounds = 16;
  static constexpr int kMaxResizeIterations = 4096;
  /// Retry budget for the epoch-validated lock-free probe loops
  /// (FIND/DELETE/upsert re-probe).  Each retry requires the displacement
  /// epoch to have changed during the probe, and parks/retires are bounded
  /// per launch (ops x chain bound), so the budget is unreachable absent a
  /// bug; it exists only to make non-termination impossible.
  static constexpr int kMaxProbeRetries = 1 << 22;
  /// Stash writer-coordination states (stash_state_).
  static constexpr uint32_t kStashVacant = 0;
  static constexpr uint32_t kStashLive = 1;
  static constexpr uint32_t kStashBusy = 2;
  /// Version-2 snapshot magic (format-version field + CRC-32 trailer).
  static constexpr uint64_t kSnapshotMagicV2 = 0xD1C0CC00'5A4B1706ULL;
  static constexpr uint64_t kSnapshotFormatVersion = 2;
  /// WriteSnapshot hands pairs to its sink in chunks of at most this many
  /// (one sink call and one CRC update each).
  static constexpr uint64_t kSnapshotChunkPairs = 1 << 16;
  /// Bytes of one interleaved (key, value) snapshot pair.
  static constexpr size_t kPairBytes = sizeof(Key) + sizeof(Value);
  /// A committing downsize may park at most this many unplaceable residuals
  /// in the stash; beyond it the whole downsize rolls back instead.
  static constexpr uint64_t kMaxDownsizeSpill = 64;

  explicit DynamicTable(const DyCuckooOptions& options) : options_(options) {}

  /// Records that a batch ran without the capacity growth it wanted
  /// (counted once per batch, keeping the first failure's message).
  void NoteDegradedBatch(Status* grow_failure, const Status& oom) {
    if (!grow_failure->ok()) return;
    stats_.degraded_batches.fetch_add(1, kRelaxed);
    *grow_failure = oom;
  }

  class FailBuffer;  // defined below

  /// The batch procedure shared by BulkInsert and BulkExecute, in order:
  /// pre-grow so the batch's inserts keep theta within beta; one RunBatch
  /// launch of `batch`; upsize and re-insert the failures, at most
  /// kMaxInsertRetryRounds times; ResizeToBounds; the sentinel check; then
  /// AbsorbResidentFailures, whose count of genuine failures goes to
  /// `num_failed` (if given) and the status.
  template <typename Batch>
  Status RunInsertBatch(const Batch& batch, uint64_t* num_failed) {
    // UpsizeInternal fails only with OutOfMemory.  Such a batch degrades
    // instead of aborting: it runs at the current capacity and its per-key
    // failures surface below.
    Status grow_failure = Status::OK();
    if (options_.auto_resize) {
      // Grow ahead of the batch so theta never exceeds beta mid-kernel;
      // this performs exactly the upsizes a reactive check would, without
      // paying for mass insertion failures first.  Failure-triggered
      // upsizing below remains as the backstop the paper describes.
      uint64_t inserts = 0;
      for (uint64_t i = 0; i < batch.size; ++i) {
        if (batch.type(i) == OpType::kInsert) ++inserts;
      }
      for (int guard = 0; guard < 64; ++guard) {
        uint64_t cap = capacity_slots();
        if (cap == 0) break;
        double projected =
            static_cast<double>(size() + inserts) / static_cast<double>(cap);
        if (projected <= options_.upper_bound) break;
        Status st = UpsizeInternal();
        if (!st.ok()) {
          NoteDegradedBatch(&grow_failure, st);
          break;
        }
      }
    }

    FailBuffer fail(batch.size);
    const uint64_t invalid = RunBatch(*this, batch, &fail);

    for (int round = 0; round < kMaxInsertRetryRounds && fail.count() > 0 &&
                        options_.auto_resize;
         ++round) {
      Status st = UpsizeInternal();
      if (!st.ok()) {
        NoteDegradedBatch(&grow_failure, st);
        break;
      }
      FailBuffer next(fail.count());
      RunBatch(*this, InsertBatch{.keys = fail.keys(), .values = fail.values(),
                                  .size = fail.count()},
               &next);
      fail = std::move(next);
    }

    if (options_.auto_resize) DYCUCKOO_RETURN_NOT_OK(ResizeToBounds());

    if (invalid > 0) {
      return Status::InvalidArgument(
          "batch contains the reserved empty-key sentinel");
    }
    if (fail.count() == 0) return Status::OK();
    const uint64_t batch_failed = AbsorbResidentFailures(fail, batch);
    if (num_failed != nullptr) *num_failed = batch_failed;
    if (batch_failed == 0) return Status::OK();
    if (!grow_failure.ok()) {
      return Status::OutOfMemory("could not grow (" + grow_failure.message() +
                                 "); " + std::to_string(batch_failed) +
                                 " keys failed");
    }
    return Status::InsertionFailure("eviction bound exceeded for " +
                                    std::to_string(batch_failed) + " keys");
  }

  /// A terminal fail buffer usually does NOT hold the batch keys that
  /// started the failing chains: cuckoo insertion displaces residents as it
  /// walks, so the carried pair left over at the chain bound is typically a
  /// key stored long before this batch.  Dropping it would silently lose
  /// data the caller never handed us in this call.  Residents are parked in
  /// the stash (lossless; drained back on the next upsize); only keys that
  /// `batch` inserts are genuine failures the caller must retry.
  template <typename Batch>
  uint64_t AbsorbResidentFailures(const FailBuffer& fail, const Batch& batch) {
    std::unordered_set<Key> batch_keys;
    for (uint64_t i = 0; i < batch.size; ++i) {
      if (batch.type(i) == OpType::kInsert) batch_keys.insert(batch.key(i));
    }
    uint64_t batch_failed = 0;
    for (uint64_t i = 0; i < fail.count(); ++i) {
      if (batch_keys.count(fail.keys()[i]) > 0) {
        ++batch_failed;
      } else {
        ForceStash(fail.keys()[i], fail.values()[i]);
        stats_.recovery_spills.fetch_add(1, kRelaxed);
      }
    }
    return batch_failed;
  }

  Status Init() {
    arena_ = options_.arena != nullptr ? options_.arena
                                       : gpusim::DeviceArena::Global();
    grid_ = options_.grid != nullptr ? options_.grid : gpusim::Grid::Global();
    const int d = options_.num_subtables;
    pair_map_ = PairMap(d, Mix64(options_.seed ^ 0xFA12B0057ULL));
    choice_salt_ = Mix64(options_.seed ^ 0xC401CE5A17ULL);

    // Smallest ladder configuration covering the capacity hint: j subtables
    // of 2n buckets and d-j of n, minimizing (d+j)*n*kSlots >= hint.  The
    // mixed start is a legal resize state, and its +12..25% granularity is
    // much finer than forcing d equal powers of two (up to +100%).
    const uint64_t want_buckets =
        CeilDiv(options_.initial_capacity, static_cast<uint64_t>(kSlots));
    uint64_t best_total = 0;
    uint64_t best_n = 1;
    int best_j = 0;
    for (uint64_t n = 1; n <= NextPowerOfTwo(want_buckets); n *= 2) {
      for (int j = 0; j <= d; ++j) {
        uint64_t total = static_cast<uint64_t>(d + j) * n;
        if (total >= want_buckets && (best_total == 0 || total < best_total)) {
          best_total = total;
          best_n = n;
          best_j = j;
        }
      }
    }
    DYCUCKOO_CHECK(best_total > 0);
    if (best_j == d) {  // all doubled == all at 2n
      best_n *= 2;
      best_j = 0;
    }
    tables_.reserve(d);
    for (int i = 0; i < d; ++i) {
      uint64_t buckets = i < best_j ? 2 * best_n : best_n;
      tables_.emplace_back(buckets,
                           Mix64(options_.seed + 0x9E3779B9ULL * (i + 1)),
                           arena_, options_.memory_tag);
      if (!tables_.back().ok()) {
        return Status::OutOfMemory("device arena exhausted creating table");
      }
    }
    if (options_.stash_capacity > 0) {
      stash_keys_ = std::vector<std::atomic<Key>>(options_.stash_capacity);
      stash_values_ = std::vector<std::atomic<Value>>(options_.stash_capacity);
      stash_state_ =
          std::vector<std::atomic<uint32_t>>(options_.stash_capacity);
      stash_tags_ = std::vector<std::atomic<uint8_t>>(options_.stash_capacity);
      const uint8_t empty_tag = SubtableT::ExpectedTag(kEmptyKey, Value{});
      for (auto& k : stash_keys_) {
        k.store(kEmptyKey, std::memory_order_relaxed);
      }
      for (auto& t : stash_tags_) {
        t.store(empty_tag, std::memory_order_relaxed);
      }
    }
    ring_.Reset(options_.handoff_capacity);
    return Status::OK();
  }

  // ---- Placement policy (Theorem 1) -----------------------------------

  /// Balance weight: free slots in subtable t.
  ///
  /// For equal-size subtables, Theorem 1's optimum (equal C(m_i,2)/n_i)
  /// reduces to equal m_i, which free-space-proportional sampling converges
  /// to.  For ladder-mixed sizes it equalizes the per-subtable filled
  /// factors, letting larger tables carry proportionally more entries
  /// (Section IV-C) — weighting by n/C(m,2) directly would instead jam the
  /// *small* tables toward 100% at high global fill and blow up eviction
  /// chains.
  double BalanceWeight(int t) const {
    double slots = static_cast<double>(tables_[t].num_slots());
    double used = static_cast<double>(tables_[t].size());
    return std::max(slots - used, 1.0);
  }

  /// Uniform double in [0, 1) deterministically derived from the key.
  double KeyUniform(Key key) const {
    return static_cast<double>(
               Mix64(static_cast<uint64_t>(key) ^ choice_salt_) >> 11) *
           (1.0 / 9007199254740992.0);
  }

  /// Chooses the initial target subtable.  Two-layer mode picks inside the
  /// key's pair; plain mode (ablation) picks among all d subtables.
  /// Excluded tables are skipped (downsize residuals); with balance enabled
  /// the choice is proportional to the Theorem-1 weights, deterministically
  /// seeded by the key.
  int ChooseTarget(Key key, const TablePair& pair, int exclude_table) const {
    if (options_.enable_two_layer) {
      if (exclude_table == pair.first) return pair.second;
      if (exclude_table == pair.second) return pair.first;
      double wi = options_.enable_balance ? BalanceWeight(pair.first) : 1.0;
      double wj = options_.enable_balance ? BalanceWeight(pair.second) : 1.0;
      double p = wi / (wi + wj);
      return KeyUniform(key) < p ? pair.first : pair.second;
    }
    // Plain d-table cuckoo: weighted choice over every non-excluded table.
    double total = 0.0;
    for (int t = 0; t < num_subtables(); ++t) {
      if (t == exclude_table) continue;
      total += options_.enable_balance ? BalanceWeight(t) : 1.0;
    }
    double r = KeyUniform(key) * total;
    for (int t = 0; t < num_subtables(); ++t) {
      if (t == exclude_table) continue;
      double w = options_.enable_balance ? BalanceWeight(t) : 1.0;
      if (r < w) return t;
      r -= w;
    }
    return exclude_table == 0 ? 1 : 0;  // numerical fallback
  }

  /// Where an evicted pair continues its walk: the other member of its own
  /// pair in two-layer mode; any other subtable in plain mode.  Returns -1
  /// when the only continuation is the excluded subtable (the chain dead-
  /// ends; the caller fails the op instead of touching excluded storage).
  int EvictionTarget(Key victim_key, int from_table, int chain_step,
                     int exclude_table) const {
    if (options_.enable_two_layer) {
      TablePair vp = pair_map_.PairFor(static_cast<uint64_t>(victim_key));
      DYCUCKOO_DCHECK(vp.Contains(from_table));
      int other = vp.Contains(from_table) ? vp.Other(from_table) : vp.first;
      return other == exclude_table ? -1 : other;
    }
    if (exclude_table < 0) {
      uint64_t h = Mix64(static_cast<uint64_t>(victim_key) + chain_step);
      int hop = 1 + static_cast<int>(h % (num_subtables() - 1));
      return (from_table + hop) % num_subtables();
    }
    int eligible = 0;
    for (int t = 0; t < num_subtables(); ++t) {
      if (t != from_table && t != exclude_table) ++eligible;
    }
    if (eligible == 0) return -1;
    uint64_t h = Mix64(static_cast<uint64_t>(victim_key) + chain_step);
    int pick = static_cast<int>(h % eligible);
    for (int t = 0; t < num_subtables(); ++t) {
      if (t == from_table || t == exclude_table) continue;
      if (pick-- == 0) return t;
    }
    return -1;
  }

  /// Candidate subtables that may hold `key` (probe set for FIND/DELETE and
  /// the upsert pre-check).  Returns the count written into `out`.
  int CandidateTables(Key key, int out[]) const {
    if (options_.enable_two_layer) {
      TablePair p = pair_map_.PairFor(static_cast<uint64_t>(key));
      out[0] = p.first;
      out[1] = p.second;
      return 2;
    }
    for (int t = 0; t < num_subtables(); ++t) out[t] = t;
    return num_subtables();
  }

  /// Picks the eviction victim: a few *randomly sampled* slots compete and
  /// the one whose alternate subtable is freest wins.  Randomization is
  /// load-bearing — a deterministic "best" victim re-selects the same keys
  /// and builds eviction cycles at high fill; sampling keeps the Theorem-1
  /// balance bias while breaking cycles (the classic cuckoo random walk).
  /// With an excluded subtable (downsize in flight) victims whose only
  /// alternate is that subtable are ineligible; -1 means no sampled victim
  /// qualifies and the chain must dead-end.
  int ChooseVictim(const SubtableT& table, uint64_t bucket, int table_idx,
                   uint64_t salt, int exclude_table) const {
    constexpr int kCandidates = 4;
    uint64_t h = Mix64(salt ^ (bucket << 20) ^ choice_salt_);
    int best_slot = -1;
    double best_weight = -1.0;
    for (int c = 0; c < kCandidates; ++c) {
      int s = static_cast<int>((h >> (c * 8)) % kSlots);
      Key k = table.KeyAt(bucket, s);
      if (k == kEmptyKey) return s;  // racing delete vacated it: reuse
      double w = 0.0;
      if (options_.enable_two_layer &&
          (options_.enable_balance || exclude_table >= 0)) {
        TablePair p = pair_map_.PairFor(static_cast<uint64_t>(k));
        if (!p.Contains(table_idx)) continue;  // defensive
        if (exclude_table >= 0 && p.Other(table_idx) == exclude_table) {
          continue;  // its walk could only land in the excluded subtable
        }
        if (options_.enable_balance) w = BalanceWeight(p.Other(table_idx));
      }
      if (w > best_weight) {
        best_weight = w;
        best_slot = s;
      }
    }
    if (best_slot < 0 && exclude_table < 0) {
      best_slot = static_cast<int>(h % kSlots);  // defensive fallback
    }
    return best_slot;
  }

  // ---- Insert kernel (Algorithm 1) -------------------------------------

  /// Overflow buffer for ops whose eviction chain exceeded the bound.
  class FailBuffer {
   public:
    explicit FailBuffer(uint64_t capacity)
        : keys_(capacity), values_(capacity) {}

    FailBuffer(FailBuffer&& o)
        : keys_(std::move(o.keys_)),
          values_(std::move(o.values_)),
          cursor_(o.cursor_.load(std::memory_order_relaxed)) {}

    FailBuffer& operator=(FailBuffer&& o) {
      keys_ = std::move(o.keys_);
      values_ = std::move(o.values_);
      cursor_.store(o.cursor_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      return *this;
    }

    void Push(Key k, Value v) {
      uint64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      DYCUCKOO_DCHECK(i < keys_.size());
      keys_[i] = k;
      values_[i] = v;
    }

    uint64_t count() const { return cursor_.load(std::memory_order_relaxed); }
    const Key* keys() const { return keys_.data(); }
    const Value* values() const { return values_.data(); }

    /// Host-side push with no kernels in flight: grows when full (the
    /// handoff sweep may re-queue victims that were never in the batch,
    /// e.g. planted by a test hook, exceeding the batch-sized capacity).
    void PushHost(Key k, Value v) {
      uint64_t i = cursor_.load(std::memory_order_relaxed);
      if (i == keys_.size()) {
        keys_.resize(keys_.size() + 1);
        values_.resize(values_.size() + 1);
      }
      keys_[i] = k;
      values_[i] = v;
      cursor_.store(i + 1, std::memory_order_relaxed);
    }

    /// Host-side compaction: drops every queued entry whose key is in
    /// `gone` (used by the handoff sweep to reconcile pairs that were
    /// deleted — or re-queued with a fresher value — while parked).
    void RemoveKeys(const std::unordered_set<Key>& gone) {
      uint64_t n = cursor_.load(std::memory_order_relaxed);
      uint64_t w = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (gone.count(keys_[i]) != 0) continue;
        keys_[w] = keys_[i];
        values_[w] = values_[i];
        ++w;
      }
      cursor_.store(w, std::memory_order_relaxed);
    }

   private:
    std::vector<Key> keys_;
    std::vector<Value> values_;
    std::atomic<uint64_t> cursor_{0};
  };

  // ---- Batch kernel -----------------------------------------------------
  //
  // A batch view says where a launch's ops come from and where their
  // results go.  It names at compile time the op types it can hold
  // (kFinds, kErases, kInserts), so WarpBody compiles to exactly the paths
  // a batch uses, and a FIND-only batch runs on a const table.  Insert
  // views also carry the placement rule: the subtable chains must avoid
  // (-1: none) and whether a resident copy is probed for first (upsert).

  using OpType = typename MixedOp::Type;

  /// BulkFind: keys in; `values`/`found` out, either may be null.
  struct FindBatch {
    static constexpr bool kFinds = true, kErases = false, kInserts = false;
    const Key* keys;
    uint64_t size;
    Value* values;
    uint8_t* found;
    OpType type(uint64_t) const { return OpType::kFind; }
    Key key(uint64_t i) const { return keys[i]; }
    void Found(uint64_t i, bool hit, Value v) const {
      if (found != nullptr) found[i] = hit ? 1 : 0;
      if (hit && values != nullptr) values[i] = v;
    }
  };

  /// BulkErase: keys in; the number of slots released added to `erased`.
  struct EraseBatch {
    static constexpr bool kFinds = false, kErases = true, kInserts = false;
    const Key* keys;
    uint64_t size;
    std::atomic<uint64_t>* erased;
    OpType type(uint64_t) const { return OpType::kErase; }
    Key key(uint64_t i) const { return keys[i]; }
    void Erased(uint64_t, uint64_t released) const {
      if (released > 0) erased->fetch_add(released, kRelaxed);
    }
  };

  /// BulkInsert, and every internal re-insertion (retry rounds, stash
  /// drain, downsize residuals, scrub re-homing): pairs in.
  struct InsertBatch {
    static constexpr bool kFinds = false, kErases = false, kInserts = true;
    const Key* keys;
    const Value* values;
    uint64_t size;
    int exclude_table = -1;
    bool check_partner = true;
    OpType type(uint64_t) const { return OpType::kInsert; }
    Key key(uint64_t i) const { return keys[i]; }
    Value value(uint64_t i) const { return values[i]; }
  };

  /// BulkExecute: results written back into the ops.
  struct MixedBatch {
    static constexpr bool kFinds = true, kErases = true, kInserts = true;
    static constexpr int exclude_table = -1;
    static constexpr bool check_partner = true;
    MixedOp* ops;
    uint64_t size;
    OpType type(uint64_t i) const { return ops[i].type; }
    Key key(uint64_t i) const { return ops[i].key; }
    Value value(uint64_t i) const { return ops[i].value; }
    void Found(uint64_t i, bool hit, Value v) const {
      ops[i].hit = hit ? 1 : 0;
      if (hit) ops[i].value = v;
    }
    void Erased(uint64_t i, uint64_t released) const {
      ops[i].hit = released > 0 ? 1 : 0;
    }
  };

  /// The one batch launch: a grid of warps, each running WarpBody over its
  /// 32 ops of `batch`.  A launch that can insert ends with the handoff
  /// sweep into `fail`.  Returns the number of reserved-sentinel insert
  /// keys skipped.  Static, with the table passed as `self`, so that
  /// BulkFind stays const.
  template <typename Self, typename Batch>
  static uint64_t RunBatch(Self& self, const Batch& batch,
                           FailBuffer* fail = nullptr) {
    std::atomic<uint64_t> invalid{0};
    self.grid_->LaunchWarps(
        gpusim::WarpsForItems(batch.size),
        [&](uint64_t warp) { WarpBody(self, batch, warp, fail, &invalid); });
    if constexpr (Batch::kInserts) self.SweepHandoffLeftovers(fail);
    return invalid.load(kRelaxed);
  }

  /// The one warp body.  The warp owns 32 consecutive ops and walks them
  /// in order: a find or erase runs at once as one probe over the key's
  /// candidate buckets (paper Section V-A); an insert is prepared into its
  /// lane.  The prepared lanes then drain through the voter loop
  /// (Algorithm 1), and the warp's tally is flushed once.
  template <typename Self, typename Batch>
  static void WarpBody(Self& self, const Batch& batch, uint64_t warp,
                       FailBuffer* fail, std::atomic<uint64_t>* invalid) {
    [[maybe_unused]] LaneOp lanes[gpusim::kWarpSize];
    TableStats::Snapshot tally;
    uint64_t local_invalid = 0;
    const uint64_t base = warp * gpusim::kWarpSize;
    const uint64_t end = std::min(batch.size, base + gpusim::kWarpSize);
    for (uint64_t idx = base; idx < end; ++idx) {
      const Key key = batch.key(idx);
      const OpType type = batch.type(idx);
      if constexpr (Batch::kFinds) {
        if (type == OpType::kFind) {
          ++tally.finds;
          Value v{};
          const bool hit = self.FindOneInternal(key, &v);
          if (hit) ++tally.find_hits;
          batch.Found(idx, hit, v);
        }
      }
      if constexpr (Batch::kErases) {
        if (type == OpType::kErase) {
          ++tally.erases;
          const uint64_t released = self.EraseOneInternal(key);
          tally.erase_hits += released;
          batch.Erased(idx, released);
        }
      }
      if constexpr (Batch::kInserts) {
        if (type == OpType::kInsert && key == kEmptyKey) {
          ++local_invalid;
        } else if (type == OpType::kInsert) {
          self.PrepareInsertLane(key, batch.value(idx), batch.exclude_table,
                                 batch.check_partner, &lanes[idx - base],
                                 &tally.inserts_updated);
        }
      }
    }
    if constexpr (Batch::kInserts) {
      self.RunVoterLoop(lanes, batch.exclude_table, batch.check_partner, fail,
                        &tally);
    }
    self.stats_.Add(tally);
    if (local_invalid) invalid->fetch_add(local_invalid, kRelaxed);
  }

  /// Host-side reconciliation after every insert-capable launch.  A pair
  /// still parked in the handoff ring belongs to an op that hit a terminal
  /// failure with a full stash (ResolveStuckOp pushed its key to the
  /// failure buffer and left it parked to stay findable).  Claimed entries
  /// were deleted mid-flight — drop them AND scrub their queued retry so a
  /// deleted key is not resurrected.  Unclaimed entries are re-queued with
  /// their freshest (possibly upserted) value.  Runs with no kernels in
  /// flight, so relaxed host-side access is safe.
  void SweepHandoffLeftovers(FailBuffer* fail) {
    if (ring_.count() == 0) return;
    std::unordered_set<Key> stale;
    std::vector<std::pair<Key, Value>> survivors;
    ring_.HostSweepLeftovers([&](Key k, Value v, bool claimed) {
      stale.insert(k);
      if (!claimed) survivors.emplace_back(k, v);
    });
    if (stale.empty()) return;
    if (fail != nullptr) {
      fail->RemoveKeys(stale);
      for (const auto& [k, v] : survivors) fail->PushHost(k, v);
    } else {
      for (const auto& [k, v] : survivors) {
        ForceStash(k, v);
        stats_.recovery_spills.fetch_add(1, kRelaxed);
      }
    }
  }

  struct LaneOp {
    Key key{};
    Value value{};
    TablePair pair{0, 0};
    int target = 0;
    int evictions = 0;
    bool active = false;
    // Handoff-ring slot holding this op's pair while it is a displaced
    // victim in flight (-1 when the pair was never displaced), plus the
    // ring word observed at park time (generation DCHECKs in Retire).
    int ring_slot = -1;
    uint64_t ring_word = 0;
    // Ring epoch at prepare time; the voter loop re-probes for a relocated
    // copy only when the epoch moved since (i.e. some chain displaced or
    // re-homed a pair after the prepare-phase probe).
    uint64_t prep_epoch = 0;
  };

  /// Prepares one lane's insert: layer-1 pair, balance-weighted target, and
  /// (optionally) the upsert probe of the other candidate bucket(s) so a
  /// key never ends up stored twice (see DESIGN.md deviation note).
  /// Two-layer mode probes one partner bucket; plain mode pays d-1 probes.
  void PrepareInsertLane(Key key, Value value, int exclude_table,
                         bool check_partner, LaneOp* op, uint64_t* updated) {
    op->key = key;
    op->value = value;
    op->pair = pair_map_.PairFor(static_cast<uint64_t>(key));
    op->target = ChooseTarget(key, op->pair, exclude_table);
    op->active = true;
    op->prep_epoch = ring_.epoch();
    if (check_partner && UpsertResident(key, value, op->target)) {
      op->active = false;
      ++*updated;
    }
  }

  /// The voter loop of Algorithm 1 over one warp's prepared lane ops.
  /// Ballot the active lanes, elect a leader, attempt its bucket; a failed
  /// lock means an immediate revote instead of spinning.  The ballot result
  /// is maintained incrementally — on hardware __ballot_sync is a single
  /// cycle, so recomputing it with a 32-lane loop each round would charge
  /// the simulation a cost the GPU never pays.
  void RunVoterLoop(LaneOp* ops, int exclude_table, bool check_partner,
                    FailBuffer* fail, TableStats::Snapshot* tally) {
    uint64_t& new_count = tally->inserts_new;
    uint64_t& updated = tally->inserts_updated;
    uint64_t& failed = tally->insert_failures;
    uint64_t& evicted = tally->evictions;
    int chain_limit = options_.max_eviction_chain;
    if (gpusim::FaultInjector* fi = gpusim::FaultInjector::Active()) {
      chain_limit = fi->ClampEvictionChain(chain_limit);
    }
    gpusim::LaneMask active =
        gpusim::Ballot([&](int lane) { return ops[lane].active; });
    int prev_leader = -1;
    for (;;) {
      if (active == 0) break;
      // With the voter disabled (ablation) the lowest active lane stays
      // leader and spins on its lock; with it enabled a lock failure
      // rotates leadership to another lane's bucket.
      int leader = options_.enable_voter
                       ? gpusim::NextLeader(active, prev_leader)
                       : gpusim::FirstLane(active);
      prev_leader = leader;
      LaneOp& op = ops[leader];

      SubtableT& table = tables_[op.target];
      const uint64_t loc = table.BucketIndex(op.key);
      if (!table.lock(loc).TryLock()) {
        gpusim::CountLockConflict();
        continue;  // revote (a different leader is preferred next)
      }

      // The warp cooperatively scans the locked bucket: one lane per slot.
      gpusim::CountBucketRead();
      Key snap[kSlots];
      table.SnapshotKeys(loc, snap);
      int match_slot = -1;
      int empty_slot = -1;
      for (int s = 0; s < kSlots; ++s) {
        if (snap[s] == op.key) {
          match_slot = s;
          break;
        }
        if (snap[s] == kEmptyKey && empty_slot < 0) empty_slot = s;
      }

      if (match_slot >= 0) {
        table.StoreValue(loc, match_slot, op.value);
        if (op.ring_slot >= 0) {
          // The pair we carry is a displaced victim with a parked handoff
          // copy, and the key is (again) resident in a bucket: collapse
          // onto the bucket copy.  The parked value is the freshest (it
          // absorbs in-flight upserts), so propagate it.
          Value latest{};
          if (ring_.Retire(op.ring_slot, op.ring_word, &latest)) {
            if (!(latest == op.value)) table.StoreValue(loc, match_slot, latest);
          } else {
            // A concurrent DELETE claimed the parked copy: it wins, and it
            // takes the bucket copy with it — unless a lock-free DELETE
            // CASed that copy out first and took the decrement itself.
            if (table.CasKey(loc, match_slot, op.key, kEmptyKey)) {
              table.AddSize(-1);
            }
            ring_.FreeClaimed(op.ring_slot);
          }
          op.ring_slot = -1;
        }
        table.lock(loc).Unlock();
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ++updated;
        continue;
      }
      if (check_partner && op.evictions == 0 &&
          ring_.epoch() != op.prep_epoch) {
        // The displacement epoch moved since this lane's prepare-phase
        // probe cleared its other candidate homes, so an eviction chain
        // may have relocated the key in the meantime.  The relocated copy
        // is re-placed (another candidate bucket or the stash) or still in
        // flight — and an in-flight pair is always visible in the handoff
        // ring between voter iterations — so an epoch-retried
        // UpsertResident finds it wherever it lives instead of us storing
        // a duplicate.
        if (RetryWhileDisplaced(
                [&] { return UpsertResident(op.key, op.value, op.target); })) {
          table.lock(loc).Unlock();
          op.active = false;
          active &= ~(gpusim::LaneMask{1} << leader);
          ++updated;
          stats_.insert_reprobe_updates.fetch_add(1, kRelaxed);
          continue;
        }
      }
      if (empty_slot >= 0) {
        bool placed = PlaceTerminal(table, loc, empty_slot, &op);
        table.lock(loc).Unlock();
        if (placed) table.AddSize(1);
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ++new_count;
        continue;
      }

      // Bucket full: evict the resident whose alternate table is freest and
      // continue the chain with the displaced pair (bounded).  An exhausted
      // chain goes to the stash when one is configured (the paper's
      // future-work extension), else to the failure buffer.
      if (op.evictions >= chain_limit) {
        table.lock(loc).Unlock();
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ResolveStuckOp(&op, fail, &failed);
        continue;
      }
      int victim =
          ChooseVictim(table, loc, op.target,
                       static_cast<uint64_t>(op.key) + op.evictions,
                       exclude_table);
      int next_target = -1;
      Key vk{};
      Value vv{};
      if (victim >= 0) {
        vk = table.KeyAt(loc, victim);
        vv = table.ValueAt(loc, victim);
        if (vk == kEmptyKey) {
          // A concurrent lock-free delete vacated the slot after our scan:
          // claim it directly instead of evicting.
          bool placed = PlaceTerminal(table, loc, victim, &op);
          table.lock(loc).Unlock();
          if (placed) table.AddSize(1);
          op.active = false;
          active &= ~(gpusim::LaneMask{1} << leader);
          ++new_count;
          continue;
        }
        next_target = EvictionTarget(vk, op.target, op.evictions,
                                     exclude_table);
      }
      if (victim < 0 || next_target < 0) {
        // Dead end: every continuation would enter the excluded subtable.
        // Fail the op exactly like an exhausted chain.
        table.lock(loc).Unlock();
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ResolveStuckOp(&op, fail, &failed);
        continue;
      }

      if (options_.unsafe_overwrite_before_park_for_test) {
        // Test-only regression mode: the pre-fix behavior.  The victim's
        // slot is overwritten while the displaced pair has no other
        // visible home, re-opening the displacement window the handoff
        // ring exists to close (the linearizability checker must flag the
        // resulting transient misses).
        table.StoreSlot(loc, victim, op.key, op.value);
        gpusim::CountBucketWrite();
        table.lock(loc).Unlock();
        // Dawdle while the displaced pair has no visible home, widening
        // the window so the checker reliably catches the transient miss.
        for (int i = 0; i < options_.eviction_delay_spins_for_test; ++i) {
          std::this_thread::yield();
        }
        gpusim::CountEviction();
        ++evicted;
        op.key = vk;
        op.value = vv;
        op.target = next_target;
        ++op.evictions;
        continue;
      }

      // Park the victim in the handoff ring BEFORE touching its slot, so
      // FIND/DELETE (buckets -> ring -> stash) see the key at every
      // instant of the chain.
      int vslot = -1;
      uint64_t vword = 0;
      if (!ring_.Park(vk, vv, &vslot, &vword)) {
        // Ring momentarily full: resolve the *incoming* pair through the
        // stash/failure path and leave the victim untouched in its
        // bucket — a displaced pair is never dropped.
        stats_.handoff_full_fallbacks.fetch_add(1, kRelaxed);
        table.lock(loc).Unlock();
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ResolveStuckOp(&op, fail, &failed);
        continue;
      }
      stats_.parked_victims.fetch_add(1, kRelaxed);
      // Unpublish the victim's key before the overwrite so no reader can
      // pair vk with the incoming value mid-swap; the parked copy keeps vk
      // findable through the empty window.  A CAS, because a lock-free
      // DELETE may have released the slot since we read vk: that delete
      // won and took the size decrement, so the parked copy is withdrawn
      // (it would bring the key back) and the incoming pair simply takes
      // the vacated slot.
      if (!table.CasKey(loc, victim, vk, kEmptyKey)) {
        Value unused{};
        if (!ring_.Retire(vslot, vword, &unused)) ring_.FreeClaimed(vslot);
        bool placed = PlaceTerminal(table, loc, victim, &op);
        table.lock(loc).Unlock();
        if (placed) table.AddSize(1);
        op.active = false;
        active &= ~(gpusim::LaneMask{1} << leader);
        ++new_count;
        continue;
      }
      // A lock-free upsert that CASed the victim's value after we read vv
      // landed on the bucket copy only: carry it into the parked copy,
      // unless an upsert of the parked copy already superseded it.
      const Value settled = table.ValueAt(loc, victim);
      if (!(settled == vv) && ring_.Refresh(vslot, &vword, settled)) {
        vv = settled;
      }
      bool placed = PlaceTerminal(table, loc, victim, &op);
      table.lock(loc).Unlock();
      // A swap is count-neutral (victim out, incoming pair in); when the
      // incoming pair was deleted mid-flight the slot ended up empty, so
      // the subtable lost the victim without gaining a replacement.
      if (!placed) table.AddSize(-1);
      for (int i = 0; i < options_.eviction_delay_spins_for_test; ++i) {
        std::this_thread::yield();
      }
      gpusim::CountEviction();
      ++evicted;

      op.key = vk;
      op.value = vv;
      op.target = next_target;
      op.ring_slot = vslot;
      op.ring_word = vword;
      ++op.evictions;
    }
  }

  /// Final placement of a lane op into an empty (or just-vacated) slot of
  /// a locked bucket.  Publishes the pair, then — when the op is a
  /// displaced victim in flight — retires its parked handoff copy: the
  /// bucket copy is visible before the ring copy disappears, so a reader
  /// never observes a gap.  Returns false when a concurrent DELETE claimed
  /// the parked copy: the placement is undone (the delete wins) and the
  /// slot is left empty.  The caller still holds the bucket lock and owns
  /// the size accounting either way: true means the slot's occupancy is
  /// the caller's to count — also when a lock-free DELETE released the
  /// published copy before the undo, since that delete took the slot's
  /// decrement.
  bool PlaceTerminal(SubtableT& table, uint64_t loc, int slot, LaneOp* op) {
    table.StoreSlot(loc, slot, op->key, op->value);
    gpusim::CountBucketWrite();
    if (op->ring_slot < 0) return true;
    Value latest{};
    if (ring_.Retire(op->ring_slot, op->ring_word, &latest)) {
      // An upsert may have refreshed the parked copy after this chain
      // captured op->value; the parked value is the freshest.
      if (!(latest == op->value)) table.StoreValue(loc, slot, latest);
      op->ring_slot = -1;
      return true;
    }
    const bool undone = table.CasKey(loc, slot, op->key, kEmptyKey);
    ring_.FreeClaimed(op->ring_slot);
    op->ring_slot = -1;
    return !undone;
  }

  /// Terminal failure path (exhausted chain, dead end, or full handoff
  /// ring).  A fresh op stashes or fails exactly as before.  A displaced
  /// victim must never lose residency: it is copied into the stash
  /// *before* its parked handoff copy is retired; when the stash is full
  /// too, the pair stays parked (still findable) and the host-side sweep
  /// after the launch reconciles it with the failure buffer.
  void ResolveStuckOp(LaneOp* op, FailBuffer* fail, uint64_t* failed) {
    if (op->ring_slot < 0) {
      if (stash_keys_.empty() || !StashInsert(op->key, op->value)) {
        fail->Push(op->key, op->value);
        ++*failed;
      }
      return;
    }
    size_t stash_idx = 0;
    if (!stash_keys_.empty() &&
        StashInsert(op->key, ring_.CurrentValue(op->ring_slot), &stash_idx)) {
      Value latest{};
      if (ring_.Retire(op->ring_slot, op->ring_word, &latest)) {
        // Propagate any upsert that hit the parked copy between the stash
        // publish and the retire.
        if (gpusim::Load(&stash_keys_[stash_idx]) == op->key) {
          StashStoreValue(stash_idx, latest);
        }
      } else {
        // Claimed by a concurrent DELETE: withdraw the stash copy again.
        StashRemoveAt(stash_idx, op->key);
        ring_.FreeClaimed(op->ring_slot);
      }
      op->ring_slot = -1;
      return;
    }
    fail->Push(op->key, op->value);
    ++*failed;
    // op->ring_slot stays set: the pair remains parked — and findable —
    // until SweepHandoffLeftovers reconciles it after the launch.
  }

  /// Lock-free value upsert into a bucket slot believed to hold `key`.
  /// The CAS pins the value read while the key matched, so the write can
  /// never land in a slot an eviction chain re-keyed in between: either
  /// the CAS fails (value already overwritten), or the key re-check after
  /// the CAS catches the recycle and the second CAS restores the value we
  /// displaced (nobody else has written since, or the restore fails
  /// harmlessly).  Concurrent upserts of the same key remain
  /// last-writer-wins, now with atomic arbitration instead of racy stores.
  bool TryUpsertSlotValue(SubtableT& t, uint64_t loc, int s, Key key,
                          Value value) {
    for (;;) {
      if (t.KeyAtAcquire(loc, s) != key) return false;
      Value expected = t.ValueAt(loc, s);
      if (expected == value) return true;
      if (!t.CasValue(loc, s, expected, value)) continue;
      if (t.KeyAtAcquire(loc, s) == key) return true;
      t.CasValue(loc, s, value, expected);
      return false;
    }
  }

  // ---- Probes (paper Section V-A) ---------------------------------------
  //
  // Every lookup-shaped path is built from three primitives: the walk over
  // a key's candidate buckets, the stash key scan, and the epoch-retry
  // wrapper that makes a lock-free miss trustworthy.

  /// The candidate-bucket walk: `k`'s candidate buckets in probe order
  /// (CandidateTables), skipping subtable `skip` and ending before
  /// subtable `stop` (-1: neither).  Each bucket visited costs one bucket
  /// read.  `on_match(table_idx, loc, slot)` runs for every slot whose key
  /// snapshot holds `k`; returning true ends the walk, which returns true.
  template <typename OnMatch>
  bool WalkCandidates(Key k, int skip, int stop, OnMatch&& on_match) const {
    int candidates[16];
    const int n_cand = CandidateTables(k, candidates);
    for (int c = 0; c < n_cand && candidates[c] != stop; ++c) {
      if (candidates[c] == skip) continue;
      const SubtableT& t = tables_[candidates[c]];
      const uint64_t loc = t.BucketIndex(k);
      gpusim::CountBucketRead();
      Key snap[kSlots];
      t.SnapshotKeys(loc, snap);
      for (int s = 0; s < kSlots; ++s) {
        if (snap[s] == k && on_match(candidates[c], loc, s)) return true;
      }
    }
    return false;
  }

  /// The stash key scan: unless the stash is empty, offers every stash
  /// slot holding `k` to `on_match(i)` until it returns true, and returns
  /// whether one did.  The scan costs one bucket read when `counted`
  /// (FIND and DELETE; the upsert probes scan it uncounted).
  template <typename OnMatch>
  bool ScanStash(Key k, bool counted, OnMatch&& on_match) const {
    if (stash_size_.load(std::memory_order_acquire) == 0) return false;
    if (counted) gpusim::CountBucketRead();
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      if (gpusim::LoadAcquire(&stash_keys_[i]) == k && on_match(i)) {
        return true;
      }
    }
    return false;
  }

  /// The epoch-retry wrapper: runs `probe` until it reports a hit, or
  /// until it misses while the displacement epoch stood still.  A chain
  /// parks its victim in the handoff ring *before* overwriting the slot
  /// and retires it only *after* the re-homed copy is published, bumping
  /// the epoch at both steps; so a miss with no epoch change proves the
  /// key was absent when the probe started.  Returns whether it hit.
  template <typename Probe>
  bool RetryWhileDisplaced(Probe&& probe) const {
    for (int attempt = 0; attempt < kMaxProbeRetries; ++attempt) {
      const uint64_t epoch = ring_.epoch();
      if (probe()) return true;
      if (ring_.epoch() == epoch) return false;
    }
    return false;  // unreachable absent a bug (see kMaxProbeRetries)
  }

  /// One lookup over the key's candidate buckets (<= 2 in two-layer
  /// mode), then the displaced-victim handoff ring, then the stash,
  /// linearizable against eviction chains through RetryWhileDisplaced.
  /// Hits re-validate the key after reading the value (an overwrite
  /// unpublishes the old key before writing the incoming pair), ruling
  /// out torn (key, value) results.
  bool FindOneInternal(Key k, Value* v) const {
    if (k == kEmptyKey) return false;
    return RetryWhileDisplaced([&] {
      if (WalkCandidates(k, /*skip=*/-1, /*stop=*/-1,
                         [&](int t, uint64_t loc, int s) {
                           const Value val = tables_[t].ValueAt(loc, s);
                           if (tables_[t].KeyAtAcquire(loc, s) != k) {
                             return false;
                           }
                           *v = val;
                           return true;
                         })) {
        return true;
      }
      if (ring_.count() > 0) {
        gpusim::CountBucketRead();
        if (ring_.TryFind(k, v)) {
          stats_.handoff_hits.fetch_add(1, kRelaxed);
          return true;
        }
      }
      return ScanStash(k, /*counted=*/true, [&](size_t i) {
        const Value val = gpusim::Load(&stash_values_[i]);
        if (gpusim::Load(&stash_keys_[i]) != k) return false;
        *v = val;
        return true;
      });
    });
  }

  /// One delete over the key's candidate buckets and the stash; returns
  /// slots released (more than one only if a racy duplicate existed).
  /// Lock-free: slots are released with a key CAS, so exactly one racing
  /// eraser wins each decrement.  A key in flight through an eviction
  /// chain is claimed from the handoff ring instead; the claim linearizes
  /// the delete and the owning chain undoes its placement at retire time.
  /// `except_table` shields one subtable from the delete (downsize
  /// rollback: the old subtable keeps its copy while duplicates elsewhere
  /// are removed).
  uint64_t EraseOneInternal(Key k, int except_table = -1) {
    if (k == kEmptyKey) return 0;
    uint64_t released = 0;
    RetryWhileDisplaced([&] {
      WalkCandidates(k, except_table, /*stop=*/-1,
                     [&](int t, uint64_t loc, int s) {
                       if (tables_[t].CasKey(loc, s, k, kEmptyKey)) {
                         tables_[t].AddSize(-1);
                         ++released;
                       }
                       return false;
                     });
      ScanStash(k, /*counted=*/true, [&](size_t i) {
        if (StashRemoveAt(i, k)) ++released;
        return false;
      });
      if (released == 0 && ring_.count() > 0 && ring_.TryClaimForDelete(k)) {
        stats_.handoff_deletes.fetch_add(1, kRelaxed);
        ++released;
      }
      return released > 0;
    });
    return released;
  }

  /// One upsert probe: the key's candidate buckets other than
  /// `skip_table`, then the handoff ring, then the stash.  The first
  /// resident copy found takes `value` in place; returns whether one did.
  /// Bucket copies are updated unlocked (TryUpsertSlotValue's CAS keeps
  /// the write out of a slot an eviction chain recycled).  A copy in
  /// flight through another chain is updated in the ring, and the owning
  /// chain re-reads the parked value when it re-homes the victim.
  bool UpsertResident(Key key, Value value, int skip_table) {
    if (WalkCandidates(key, skip_table, /*stop=*/-1,
                       [&](int t, uint64_t loc, int s) {
                         return TryUpsertSlotValue(tables_[t], loc, s, key,
                                                   value);
                       })) {
      return true;
    }
    if (ring_.count() > 0 && ring_.UpdateValue(key, value)) return true;
    return ScanStash(key, /*counted=*/false, [&](size_t i) {
      StashStoreValue(i, value);
      return true;
    });
  }

  /// XORs one bit of a trivially-copyable word (test corruption planting).
  template <typename Word>
  static void FlipBit(Word* word, int bit) {
    unsigned char bytes[sizeof(Word)];
    std::memcpy(bytes, word, sizeof(Word));
    const size_t pos = static_cast<size_t>(bit) % (sizeof(Word) * 8);
    bytes[pos / 8] ^= static_cast<unsigned char>(1u << (pos % 8));
    std::memcpy(word, bytes, sizeof(Word));
  }

  // ---- Stash tag maintenance -------------------------------------------
  //
  // The stash carries the same per-slot integrity invariant as the bucket
  // arrays: stash_tags_[i] == FoldKey(key) ^ FoldValue(value), vacant
  // slots included.  The same differential discipline applies — exchanges
  // learn the true prior word and fetch_xor the exact transition delta, so
  // racy value upserts and key CASes compose in any order.

  /// Key store into stash slot `i` with the release ordering StashInsert's
  /// publication protocol requires (exchange is acq_rel), plus the tag
  /// delta for the transition actually performed.
  void StashStoreKey(size_t i, Key k) {
    Key old = gpusim::AtomicExchWord(&stash_keys_[i], k);
    if (old != k) {
      stash_tags_[i].fetch_xor(
          static_cast<uint8_t>(SubtableT::FoldKey(old) ^ SubtableT::FoldKey(k)),
          std::memory_order_relaxed);
    }
  }

  /// Value store into stash slot `i`; last-writer-wins for racy upserts,
  /// with the exchange arbitrating whose tag delta applies.
  void StashStoreValue(size_t i, Value v) {
    Value old = gpusim::AtomicExchWord(&stash_values_[i], v);
    if (!(old == v)) {
      stash_tags_[i].fetch_xor(
          static_cast<uint8_t>(SubtableT::FoldValue(old) ^
                               SubtableT::FoldValue(v)),
          std::memory_order_relaxed);
    }
  }

  /// Claims a free stash slot for a failed insertion; false when full.
  /// `slot_out` (optional) receives the claimed index.
  ///
  /// Publication order is load-bearing for lock-free readers: the slot is
  /// claimed through stash_state_ (so a racing StashInsert can never write
  /// its value into a slot another insert is about to publish), the
  /// occupancy counter rises with release *before* the key becomes
  /// visible (so a reader gating its scan on stash_size_ > 0 cannot skip
  /// a published entry), and the key itself is stored last with release
  /// (so a reader that observes it also observes the value).
  bool StashInsert(Key k, Value v, size_t* slot_out = nullptr) {
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      if (gpusim::Load(&stash_state_[i]) != kStashVacant) continue;
      if (!gpusim::AtomicCasWord(&stash_state_[i], kStashVacant, kStashBusy)) {
        continue;
      }
      stash_size_.fetch_add(1, std::memory_order_release);
      // Racy by contract: a concurrent upsert of k may write the value
      // slot the moment the key publishes it; last writer wins.
      StashStoreValue(i, v);
      StashStoreKey(i, k);
      bool ok = gpusim::AtomicCasWord(&stash_state_[i], kStashBusy, kStashLive);
      DYCUCKOO_DCHECK(ok);
      (void)ok;
      stats_.stash_inserts.fetch_add(1, kRelaxed);
      if (slot_out != nullptr) *slot_out = i;
      return true;
    }
    return false;
  }

  /// Removes the stash entry at slot `i` holding key `k` (device-side,
  /// racing erasers allowed — exactly one wins).  Returns true for the
  /// winner, which also owns the occupancy decrement, the slot reclaim,
  /// and the tag delta its won CAS authorized.
  bool StashRemoveAt(size_t i, Key k) {
    if (!gpusim::AtomicCasWord(&stash_keys_[i], k, kEmptyKey)) return false;
    if (k != kEmptyKey) {
      stash_tags_[i].fetch_xor(
          static_cast<uint8_t>(SubtableT::FoldKey(k) ^
                               SubtableT::FoldKey(kEmptyKey)),
          std::memory_order_relaxed);
    }
    // The key-CAS winner owns the reclaim.  The state may still be kBusy
    // when the key was caught mid-publish (value and key already written);
    // the publisher's busy -> live transition takes no locks, so waiting
    // for it here always makes progress.
    for (;;) {
      if (gpusim::LoadAcquire(&stash_state_[i]) == kStashLive &&
          gpusim::AtomicCasWord(&stash_state_[i], kStashLive, kStashVacant)) {
        break;
      }
      std::this_thread::yield();
    }
    stash_size_.fetch_sub(1, kRelaxed);
    return true;
  }

  /// Stash insert that cannot fail: doubles the stash arrays (host memory,
  /// like the fail buffers — not arena-metered) when full.  Recovery paths
  /// only; called with no kernels in flight.
  void ForceStash(Key k, Value v) {
    if (StashInsert(k, v)) return;
    const size_t old_cap = stash_keys_.size();
    const size_t new_cap = std::max<size_t>(16, old_cap * 2);
    std::vector<std::atomic<Key>> grown_keys(new_cap);
    std::vector<std::atomic<Value>> grown_values(new_cap);
    std::vector<std::atomic<uint32_t>> grown_state(new_cap);
    std::vector<std::atomic<uint8_t>> grown_tags(new_cap);
    for (size_t i = 0; i < new_cap; ++i) {
      grown_keys[i].store(kEmptyKey, std::memory_order_relaxed);
      grown_tags[i].store(SubtableT::ExpectedTag(kEmptyKey, Value{}),
                          std::memory_order_relaxed);
    }
    for (size_t i = 0; i < old_cap; ++i) {
      grown_keys[i].store(stash_keys_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      grown_values[i].store(stash_values_[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      grown_state[i].store(stash_state_[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      // The copy is NOT a delta-maintained transition — carry the tag word
      // verbatim so pre-existing (planted or real) corruption survives the
      // regrow instead of being silently laundered into a clean tag.
      grown_tags[i].store(stash_tags_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    stash_keys_ = std::move(grown_keys);
    stash_values_ = std::move(grown_values);
    stash_state_ = std::move(grown_state);
    stash_tags_ = std::move(grown_tags);
    DYCUCKOO_CHECK(StashInsert(k, v));
  }

  /// Moves every stash entry back through the normal insert path (called
  /// after an upsize made room); anything that still fails returns to the
  /// stash, which cannot overflow since the entries just vacated it.
  void DrainStash() {
    uint64_t count = stash_size_.load(std::memory_order_relaxed);
    if (count == 0) return;
    std::vector<Key> keys;
    std::vector<Value> values;
    keys.reserve(count);
    for (size_t i = 0; i < stash_keys_.size(); ++i) {
      Key k = stash_keys_[i].load(std::memory_order_relaxed);
      if (k == kEmptyKey) continue;
      values.push_back(stash_values_[i].load(std::memory_order_relaxed));
      keys.push_back(k);
      StashStoreKey(i, kEmptyKey);
      stash_state_[i].store(kStashVacant, std::memory_order_relaxed);
      stash_size_.fetch_sub(1, kRelaxed);
    }
    if (keys.empty()) return;
    FailBuffer fail(keys.size());
    RunBatch(*this,
             InsertBatch{.keys = keys.data(), .values = values.data(),
                         .size = keys.size(), .check_partner = false},
             &fail);
    stats_.stash_drains.fetch_add(keys.size() - fail.count(), kRelaxed);
    for (uint64_t i = 0; i < fail.count(); ++i) {
      DYCUCKOO_CHECK(StashInsert(fail.keys()[i], fail.values()[i]));
    }
  }

  // ---- Resizing ---------------------------------------------------------

  int SmallestSubtable() const {
    int best = 0;
    for (int i = 1; i < num_subtables(); ++i) {
      if (tables_[i].num_buckets() < tables_[best].num_buckets()) best = i;
    }
    return best;
  }

  int LargestSubtable() const {
    int best = 0;
    for (int i = 1; i < num_subtables(); ++i) {
      if (tables_[i].num_buckets() > tables_[best].num_buckets()) best = i;
    }
    return best;
  }

  bool CanDownsize() const {
    return tables_[LargestSubtable()].num_buckets() > 1;
  }

  /// Doubles the smallest subtable.  Conflict-free: a pair in old bucket
  /// `loc` can only move to `loc` or `loc + n_old` in the doubled table, and
  /// distinct old buckets never collide, so no locks are taken (paper
  /// Section IV-D, Figure 4).
  Status UpsizeInternal() {
    const int idx = SmallestSubtable();
    SubtableT& old = tables_[idx];
    const uint64_t n_old = old.num_buckets();
    SubtableT bigger(n_old * 2, old.seed(), arena_, options_.memory_tag);
    if (!bigger.ok()) {
      return Status::OutOfMemory("device arena exhausted during upsize");
    }

    grid_->LaunchWarps(n_old, [&](uint64_t loc) {
      gpusim::CountBucketRead();
      Key snap_k[kSlots];
      Value snap_v[kSlots];
      old.SnapshotKeys(loc, snap_k);
      old.SnapshotValues(loc, snap_v);
      int stay = 0;
      int moved = 0;
      for (int s = 0; s < kSlots; ++s) {
        Key k = snap_k[s];
        if (k == kEmptyKey) continue;
        Value v = snap_v[s];
        // Source tag travels verbatim with the pair so a not-yet-scrubbed
        // corruption survives the move instead of being re-sealed.
        const uint8_t tag = old.TagAt(loc, s);
        uint64_t new_loc = bigger.RawHash(k) & (2 * n_old - 1);
        if (new_loc != loc && new_loc != loc + n_old) {
          // Only possible when the key bytes were silently corrupted (an
          // intact key in bucket `loc` can rehash to loc or loc + n_old
          // and nothing else).  Keep the pair at `loc` with its mismatched
          // tag: the next scrub pass flags and unpublishes it there.
          new_loc = loc;
        }
        if (new_loc == loc) {
          bigger.StoreSlotFresh(loc, stay++, k, v, tag);
        } else {
          bigger.StoreSlotFresh(loc + n_old, moved++, k, v, tag);
        }
      }
      if (stay) gpusim::CountBucketWrite();
      if (moved) gpusim::CountBucketWrite();
    });

    stats_.rehashed_kvs.fetch_add(old.size(), kRelaxed);
    stats_.upsizes.fetch_add(1, kRelaxed);
    bigger.SetSize(old.size());
    tables_[idx] = std::move(bigger);
    // The new headroom is the stash's chance to empty itself.
    DrainStash();
    return Status::OK();
  }

  /// Halves the largest subtable: old buckets (loc, loc + n_new) merge into
  /// new bucket loc; overflow ("residuals") is reinserted into the *other*
  /// subtables (paper Section IV-D, downsizing).
  ///
  /// Transactional: the old subtable stays live — and untouched, since the
  /// entire eviction machinery excludes subtable `idx` — until every
  /// residual has a new home.  Outcomes:
  ///  * commit:        *progressed = true, OK.  Up to kMaxDownsizeSpill
  ///                   hard-to-place residuals may be parked in the stash
  ///                   (stats().recovery_spills) rather than aborting.
  ///  * alloc failure: *progressed = false, OutOfMemory; nothing changed.
  ///  * rollback:      *progressed = false, OK; residual copies placed in
  ///                   other subtables are erased again (the old subtable
  ///                   still holds the originals) and any residents the
  ///                   placement chains displaced are re-homed.  No key is
  ///                   ever lost (stats().downsize_rollbacks).
  Status DownsizeInternal(bool* progressed) {
    *progressed = false;
    const int idx = LargestSubtable();
    SubtableT& old = tables_[idx];
    const uint64_t n_new = old.num_buckets() / 2;
    DYCUCKOO_CHECK(n_new >= 1);
    SubtableT smaller(n_new, old.seed(), arena_, options_.memory_tag);
    if (!smaller.ok()) {
      return Status::OutOfMemory("device arena exhausted during downsize");
    }

    const uint64_t old_size = old.size();
    std::vector<Key> residual_keys(old_size);
    std::vector<Value> residual_values(old_size);
    std::atomic<uint64_t> residual_cursor{0};

    grid_->LaunchWarps(n_new, [&](uint64_t loc) {
      Key merged_k[2 * kSlots];
      Value merged_v[2 * kSlots];
      uint8_t merged_t[2 * kSlots];
      int count = 0;
      const uint64_t sources[2] = {loc, loc + n_new};
      for (uint64_t src : sources) {
        gpusim::CountBucketRead();
        Key snap_k[kSlots];
        Value snap_v[kSlots];
        old.SnapshotKeys(src, snap_k);
        old.SnapshotValues(src, snap_v);
        for (int s = 0; s < kSlots; ++s) {
          if (snap_k[s] == kEmptyKey) continue;
          merged_k[count] = snap_k[s];
          merged_v[count] = snap_v[s];
          // Verbatim tag carry: see StoreSlotFresh.  (Residuals that spill
          // to other subtables below re-publish through RunBatch and
          // get freshly sealed tags — the one resize path that can launder
          // a not-yet-scrubbed fault; docs/robustness.md records it.)
          merged_t[count] = old.TagAt(src, s);
          ++count;
        }
      }
      int kept = std::min(count, kSlots);
      for (int s = 0; s < kept; ++s) {
        smaller.StoreSlotFresh(loc, s, merged_k[s], merged_v[s],
                               merged_t[s]);
      }
      if (kept) gpusim::CountBucketWrite();
      if (count > kept) {
        uint64_t at = residual_cursor.fetch_add(count - kept,
                                                std::memory_order_relaxed);
        for (int s = kept; s < count; ++s, ++at) {
          residual_keys[at] = merged_k[s];
          residual_values[at] = merged_v[s];
        }
      }
    });

    const uint64_t residuals = residual_cursor.load(std::memory_order_relaxed);

    // Place every residual into the *other* subtables while the old
    // subtable still holds them.  The transient duplicates are invisible:
    // no partner check, and chains never enter subtable idx.
    FailBuffer fail(residuals > 0 ? residuals : 1);
    if (residuals > 0) {
      RunBatch(*this,
               InsertBatch{.keys = residual_keys.data(),
                           .values = residual_values.data(),
                           .size = residuals,
                           .exclude_table = idx,
                           .check_partner = false},
               &fail);
    }
    const uint64_t leftover = fail.count();
    if (leftover > kMaxDownsizeSpill) {
      RollbackDownsize(idx, residual_keys, residuals, fail);
      stats_.downsize_rollbacks.fetch_add(1, kRelaxed);
      DYCUCKOO_LOG(Warning) << "downsize of subtable " << idx
                            << " rolled back: " << leftover << " of "
                            << residuals << " residuals had no home";
      return Status::OK();
    }

    // Commit: absorb the stragglers into the stash and swap in the merged
    // subtable (which frees the old one).
    for (uint64_t i = 0; i < leftover; ++i) {
      ForceStash(fail.keys()[i], fail.values()[i]);
    }
    if (leftover > 0) {
      stats_.recovery_spills.fetch_add(leftover, kRelaxed);
      DYCUCKOO_LOG(Info) << "downsize of subtable " << idx << " parked "
                         << leftover << " residuals in the stash";
    }
    smaller.SetSize(old_size - residuals);
    tables_[idx] = std::move(smaller);
    stats_.rehashed_kvs.fetch_add(old_size, kRelaxed);
    stats_.residual_kvs.fetch_add(residuals, kRelaxed);
    stats_.downsizes.fetch_add(1, kRelaxed);
    *progressed = true;
    return Status::OK();
  }

  /// Undoes a failed downsize.  The old subtable (still installed at `idx`)
  /// holds every residual, so the copies successfully placed into other
  /// subtables or the stash are simply erased again.  Keys in the fail
  /// buffer that are *not* residuals were evicted out of their slots by the
  /// placement chains and must be stored again — the stash backstops them,
  /// so the rollback itself cannot lose keys.
  void RollbackDownsize(int idx, const std::vector<Key>& residual_keys,
                        uint64_t residuals, const FailBuffer& fail) {
    std::unordered_set<Key> residual_set(residual_keys.begin(),
                                         residual_keys.begin() + residuals);
    for (uint64_t i = 0; i < residuals; ++i) {
      EraseOneInternal(residual_keys[i], /*except_table=*/idx);
    }
    std::vector<Key> displaced_keys;
    std::vector<Value> displaced_values;
    for (uint64_t i = 0; i < fail.count(); ++i) {
      if (residual_set.count(fail.keys()[i]) > 0) continue;
      displaced_keys.push_back(fail.keys()[i]);
      displaced_values.push_back(fail.values()[i]);
    }
    if (displaced_keys.empty()) return;
    FailBuffer still_failed(displaced_keys.size());
    RunBatch(*this,
             InsertBatch{.keys = displaced_keys.data(),
                         .values = displaced_values.data(),
                         .size = displaced_keys.size(),
                         .exclude_table = idx,
                         .check_partner = false},
             &still_failed);
    for (uint64_t i = 0; i < still_failed.count(); ++i) {
      ForceStash(still_failed.keys()[i], still_failed.values()[i]);
    }
    if (still_failed.count() > 0) {
      stats_.recovery_spills.fetch_add(still_failed.count(), kRelaxed);
    }
  }

  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  DyCuckooOptions options_;
  gpusim::DeviceArena* arena_ = nullptr;
  gpusim::Grid* grid_ = nullptr;
  PairMap pair_map_;
  uint64_t choice_salt_ = 0;
  std::vector<SubtableT> tables_;
  // Overflow stash (options_.stash_capacity entries; empty when disabled).
  // stash_state_ serializes writers per slot (claim -> publish -> reclaim);
  // readers validate purely through the key word and never touch it.
  std::vector<std::atomic<Key>> stash_keys_;
  std::vector<std::atomic<Value>> stash_values_;
  std::vector<std::atomic<uint32_t>> stash_state_;
  // Per-slot integrity tags mirroring the subtables' tag line (see
  // subtable.h): stash_tags_[i] == FoldKey(key) ^ FoldValue(value).
  std::vector<std::atomic<uint8_t>> stash_tags_;
  std::atomic<uint64_t> stash_size_{0};
  // Displaced-victim handoff (options_.handoff_capacity entries): keeps
  // every key of an in-flight eviction chain reader-visible.
  HandoffRing<Key, Value> ring_;
  mutable TableStats stats_;
};

}  // namespace dycuckoo

#endif  // DYCUCKOO_DYCUCKOO_DYNAMIC_TABLE_H_
