// MegaKV baseline (Zhang et al., VLDB 2015), as characterized by the paper:
//
//  * cuckoo hashing with exactly two subtables / hash functions;
//  * a cache-line bucket per hash value (16 packed 64-bit KV slots);
//  * no bucket locks — slots are claimed and evicted with single 64-bit
//    atomics, which is why KV pairs are limited to 64 bits;
//  * static sizing; for the dynamic comparison the paper gives it the
//    simple strategy of doubling/halving total capacity followed by a full
//    rehash of every stored pair whenever the filled factor leaves
//    [lower_bound, upper_bound] (or an insertion fails).

#ifndef DYCUCKOO_BASELINES_MEGAKV_H_
#define DYCUCKOO_BASELINES_MEGAKV_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/packed_kv.h"
#include "baselines/table_interface.h"
#include "common/status.h"
#include "gpusim/racecheck.h"

namespace dycuckoo {

namespace gpusim {
class DeviceArena;
class Grid;
}  // namespace gpusim

struct MegaKvOptions {
  /// Initial total slot capacity hint (across both subtables).
  uint64_t initial_capacity = 64 * 1024;

  /// Resize bounds; used only when auto_resize is true.
  double lower_bound = 0.30;
  double upper_bound = 0.85;
  bool auto_resize = true;

  uint64_t seed = 0x4D65676158ULL;
  int max_eviction_chain = 64;

  gpusim::DeviceArena* arena = nullptr;
  gpusim::Grid* grid = nullptr;
  std::string memory_tag = "megakv";

  Status Validate() const;
};

/// \brief Two-choice bucketed cuckoo hash with full-rehash resizing.
class MegaKvTable : public HashTableInterface {
 public:
  static constexpr int kSlotsPerBucket = 16;  // 128-byte bucket of u64 slots

  static Status Create(const MegaKvOptions& options,
                       std::unique_ptr<MegaKvTable>* out);
  ~MegaKvTable() override;

  MegaKvTable(const MegaKvTable&) = delete;
  MegaKvTable& operator=(const MegaKvTable&) = delete;

  Status BulkInsert(std::span<const Key> keys, std::span<const Value> values,
                    uint64_t* num_failed = nullptr) override;
  void BulkFind(std::span<const Key> keys, Value* values,
                uint8_t* found) override;
  Status BulkErase(std::span<const Key> keys,
                   uint64_t* num_erased = nullptr) override;

  uint64_t size() const override {
    return size_.load(std::memory_order_relaxed) + spill_.size();
  }
  uint64_t memory_bytes() const override;
  double filled_factor() const override;
  std::string name() const override { return "MegaKV"; }

  uint64_t capacity_slots() const { return 2ull * buckets_per_table_ * kSlotsPerBucket; }
  uint64_t full_rehash_count() const { return full_rehashes_; }
  uint64_t rehashed_kvs() const { return rehashed_kvs_; }
  uint64_t rehash_rollbacks() const { return rehash_rollbacks_; }

  /// Resident pairs parked host-side when a failed grow-rehash left them
  /// displaced with nowhere to go (still found/erased normally; reinserted
  /// by the next successful rehash).
  uint64_t spilled_residents() const { return spill_.size(); }

  /// Test/debug: all stored pairs.
  std::vector<std::pair<Key, Value>> Dump() const;

 private:
  explicit MegaKvTable(const MegaKvOptions& options);

  Status Init(uint64_t capacity_slots);
  void ReleaseStorage();

  uint64_t BucketIndex(int table, Key key) const;
  std::atomic<uint64_t>* Slot(int table, uint64_t bucket, int slot) const {
    return &slots_[table][bucket * kSlotsPerBucket + slot];
  }

  /// One simulated coalesced bucket transaction (see Subtable::SnapshotKeys).
  void SnapshotBucket(int table, uint64_t bucket,
                      uint64_t out[kSlotsPerBucket]) const {
    static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
    gpusim::RangeLoadCheck(slots_[table] + bucket * kSlotsPerBucket,
                           sizeof(uint64_t) * kSlotsPerBucket);
    std::memcpy(out,
                reinterpret_cast<const char*>(slots_[table] +
                                              bucket * kSlotsPerBucket),
                sizeof(uint64_t) * kSlotsPerBucket);
  }

  /// Lock-free insert of one pair; returns false when the eviction chain
  /// exceeded the bound (the carried pair is written to *overflow).
  bool InsertOne(Key key, Value value, uint64_t* overflow_packed);

  /// The two halves of InsertOne: overwrites the value of a resident key
  /// (false when absent), and the cuckoo walk that places an absent one.
  bool UpsertOne(Key key, Value value);
  bool WalkInsert(Key key, Value value, uint64_t* overflow_packed);

  /// Doubles (grow=true) or halves total capacity and rehashes every pair.
  Status Rehash(bool grow);

  Status ResizeToBounds();

  MegaKvOptions options_;
  gpusim::DeviceArena* arena_ = nullptr;
  gpusim::Grid* grid_ = nullptr;
  uint64_t seeds_[2] = {0, 0};
  uint64_t buckets_per_table_ = 0;
  std::atomic<uint64_t>* slots_[2] = {nullptr, nullptr};
  std::atomic<uint64_t> size_{0};
  uint64_t seed_epoch_ = 0;
  uint64_t full_rehashes_ = 0;
  uint64_t rehashed_kvs_ = 0;
  uint64_t rehash_rollbacks_ = 0;
  std::vector<uint64_t> spill_;  // packed resident KVs a rehash couldn't place
};

}  // namespace dycuckoo

#endif  // DYCUCKOO_BASELINES_MEGAKV_H_
