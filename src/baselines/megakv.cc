#include "baselines/megakv.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "gpusim/atomics.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "gpusim/sim_counters.h"
#include "gpusim/warp.h"

namespace dycuckoo {

using baselines::IsStorableKey;
using baselines::kEmptyKey32;
using baselines::kEmptySlot;
using baselines::PackedKey;
using baselines::PackedValue;
using baselines::PackKv;

Status MegaKvOptions::Validate() const {
  if (initial_capacity == 0) {
    return Status::InvalidArgument("initial_capacity must be > 0");
  }
  if (!(lower_bound > 0.0 && lower_bound < upper_bound && upper_bound <= 1.0)) {
    return Status::InvalidArgument(
        "require 0 < lower_bound < upper_bound <= 1");
  }
  if (max_eviction_chain < 1) {
    return Status::InvalidArgument("max_eviction_chain must be >= 1");
  }
  return Status::OK();
}

MegaKvTable::MegaKvTable(const MegaKvOptions& options) : options_(options) {}

MegaKvTable::~MegaKvTable() { ReleaseStorage(); }

Status MegaKvTable::Create(const MegaKvOptions& options,
                           std::unique_ptr<MegaKvTable>* out) {
  DYCUCKOO_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<MegaKvTable> table(new MegaKvTable(options));
  table->arena_ = options.arena != nullptr ? options.arena
                                           : gpusim::DeviceArena::Global();
  table->grid_ =
      options.grid != nullptr ? options.grid : gpusim::Grid::Global();
  DYCUCKOO_RETURN_NOT_OK(table->Init(options.initial_capacity));
  *out = std::move(table);
  return Status::OK();
}

Status MegaKvTable::Init(uint64_t capacity_slots) {
  // Arbitrary bucket counts (modulo addressing): MegaKV's resize is a full
  // rehash, so nothing needs power-of-two sizing, and the requested load
  // factor is achieved exactly.
  uint64_t buckets =
      std::max<uint64_t>(1, CeilDiv(capacity_slots, 2ull * kSlotsPerBucket));
  std::atomic<uint64_t>* fresh[2] = {nullptr, nullptr};
  for (int t = 0; t < 2; ++t) {
    fresh[t] = arena_->AllocateArray<std::atomic<uint64_t>>(
        buckets * kSlotsPerBucket, options_.memory_tag);
    if (fresh[t] == nullptr) {
      if (fresh[0] != nullptr) arena_->FreeArray(fresh[0]);
      return Status::OutOfMemory("device arena exhausted (megakv init)");
    }
    for (uint64_t s = 0; s < buckets * kSlotsPerBucket; ++s) {
      fresh[t][s].store(kEmptySlot, std::memory_order_relaxed);
    }
  }
  ReleaseStorage();
  slots_[0] = fresh[0];
  slots_[1] = fresh[1];
  buckets_per_table_ = buckets;
  seeds_[0] = Mix64(options_.seed ^ (0xAB1E5ULL + seed_epoch_));
  seeds_[1] = Mix64(options_.seed ^ (0xCAFE5ULL + seed_epoch_));
  ++seed_epoch_;
  return Status::OK();
}

void MegaKvTable::ReleaseStorage() {
  for (int t = 0; t < 2; ++t) {
    if (slots_[t] != nullptr) {
      arena_->FreeArray(slots_[t]);
      slots_[t] = nullptr;
    }
  }
}

uint64_t MegaKvTable::BucketIndex(int table, Key key) const {
  return Mix64(static_cast<uint64_t>(key) ^ seeds_[table]) %
         buckets_per_table_;
}

bool MegaKvTable::InsertOne(Key key, Value value, uint64_t* overflow_packed) {
  return UpsertOne(key, value) || WalkInsert(key, value, overflow_packed);
}

bool MegaKvTable::UpsertOne(Key key, Value value) {
  // Overwrite the value if the key is already resident.
  for (int t = 0; t < 2; ++t) {
    uint64_t loc = BucketIndex(t, key);
    gpusim::CountBucketRead();
    uint64_t snap[kSlotsPerBucket];
    SnapshotBucket(t, loc, snap);
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (PackedKey(snap[s]) == key) {
        gpusim::AtomicExch64(Slot(t, loc, s), PackKv(key, value));
        return true;
      }
    }
  }
  return false;
}

bool MegaKvTable::WalkInsert(Key key, Value value,
                             uint64_t* overflow_packed) {
  // Cuckoo walk with single-word exchanges (no bucket locks).
  uint64_t carried = PackKv(key, value);
  int table = static_cast<int>(Mix64(key) & 1);
  for (int attempt = 0; attempt <= options_.max_eviction_chain; ++attempt) {
    Key ck = PackedKey(carried);
    uint64_t loc = BucketIndex(table, ck);
    gpusim::CountBucketRead();
    uint64_t snap[kSlotsPerBucket];
    SnapshotBucket(table, loc, snap);
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (PackedKey(snap[s]) == kEmptyKey32) {
        std::atomic<uint64_t>* slot = Slot(table, loc, s);
        if (gpusim::AtomicCas64(slot, kEmptySlot, carried) == kEmptySlot) {
          gpusim::CountBucketWrite();
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
    // Bucket full: displace a pseudo-random resident with one exchange.
    int victim =
        static_cast<int>(Mix64(carried + attempt) % kSlotsPerBucket);
    uint64_t old = gpusim::AtomicExch64(Slot(table, loc, victim), carried);
    gpusim::CountBucketWrite();
    if (PackedKey(old) == kEmptyKey32) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    gpusim::CountEviction();
    carried = old;
    table ^= 1;
  }
  *overflow_packed = carried;
  return false;
}

Status MegaKvTable::BulkInsert(std::span<const Key> keys,
                               std::span<const Value> values,
                               uint64_t* num_failed) {
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("keys/values size mismatch");
  }
  if (num_failed != nullptr) *num_failed = 0;
  if (keys.empty()) return Status::OK();

  // Reactive resizing only, as the paper adapts MegaKV: the filled-factor
  // check runs after the batch, and mid-batch insertion failures trigger a
  // grow-and-full-rehash.  (No proactive pre-growth — that would be giving
  // the baseline the proposed system's policy.)
  std::vector<uint64_t> overflow(keys.size());
  std::atomic<uint64_t> overflow_count{0};
  std::atomic<uint64_t> invalid{0};
  const Key* kp = keys.data();
  const Value* vp = values.data();
  const uint64_t n = keys.size();

  // Two launches: upserts of resident keys first, then cuckoo walks for
  // the rest.  In one launch a blind upsert exchange could overwrite a
  // pair a concurrent walk had just moved into the slot, and a walk
  // carrying a key in registers would hide it from a same-key upsert,
  // which would then store a second copy.
  std::vector<uint8_t> walk(n);
  auto run_batch = [&](const Key* bk, const Value* bv, const uint64_t* packed,
                       uint64_t count) {
    auto item = [&](uint64_t i) {
      return std::pair<Key, Value>{
          packed != nullptr ? PackedKey(packed[i]) : bk[i],
          packed != nullptr ? PackedValue(packed[i]) : bv[i]};
    };
    walk.assign(count, 0);
    grid_->LaunchWarps(gpusim::WarpsForItems(count), [&](uint64_t warp) {
      const uint64_t base = warp * gpusim::kWarpSize;
      const uint64_t end = std::min(count, base + gpusim::kWarpSize);
      for (uint64_t i = base; i < end; ++i) {
        auto [k, v] = item(i);
        if (!IsStorableKey(k)) {
          invalid.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        walk[i] = !UpsertOne(k, v);
      }
    });
    grid_->LaunchWarps(gpusim::WarpsForItems(count), [&](uint64_t warp) {
      const uint64_t base = warp * gpusim::kWarpSize;
      const uint64_t end = std::min(count, base + gpusim::kWarpSize);
      for (uint64_t i = base; i < end; ++i) {
        if (!walk[i]) continue;
        auto [k, v] = item(i);
        uint64_t spilled = 0;
        if (!WalkInsert(k, v, &spilled)) {
          overflow[overflow_count.fetch_add(1, std::memory_order_relaxed)] =
              spilled;
        }
      }
    });
  };

  run_batch(kp, vp, nullptr, n);

  int rounds = 0;
  while (overflow_count.load(std::memory_order_relaxed) > 0 &&
         options_.auto_resize && rounds++ < 16) {
    std::vector<uint64_t> pending(
        overflow.begin(),
        overflow.begin() +
            static_cast<long>(overflow_count.load(std::memory_order_relaxed)));
    overflow_count.store(0, std::memory_order_relaxed);
    Status rst = Rehash(/*grow=*/true);
    if (!rst.ok()) {
      // Rehash restored the old table, but `pending` holds pairs displaced
      // out of it by this batch's cuckoo walks — residents among them were
      // stored before this call and must not ride out with the error.
      // Re-place what fits; park displaced residents host-side and report
      // only this batch's keys as failed.
      std::unordered_set<Key> batch_keys(keys.begin(), keys.end());
      uint64_t batch_failed = 0;
      for (uint64_t packed : pending) {
        uint64_t spilled = 0;
        if (InsertOne(PackedKey(packed), PackedValue(packed), &spilled)) {
          continue;
        }
        if (batch_keys.count(PackedKey(spilled)) > 0) {
          ++batch_failed;
        } else {
          spill_.push_back(spilled);
        }
      }
      if (invalid.load(std::memory_order_relaxed) > 0) {
        return Status::InvalidArgument("batch contains a reserved key");
      }
      if (batch_failed > 0) {
        if (num_failed != nullptr) *num_failed = batch_failed;
        std::string msg = rst.message() + "; " +
                          std::to_string(batch_failed) + " keys failed";
        return rst.IsOutOfMemory() ? Status::OutOfMemory(std::move(msg))
                                   : Status::Internal(std::move(msg));
      }
      return Status::OK();
    }
    run_batch(nullptr, nullptr, pending.data(), pending.size());
  }

  if (options_.auto_resize) DYCUCKOO_RETURN_NOT_OK(ResizeToBounds());

  if (invalid.load(std::memory_order_relaxed) > 0) {
    return Status::InvalidArgument("batch contains a reserved key");
  }
  uint64_t leftover = overflow_count.load(std::memory_order_relaxed);
  if (leftover > 0) {
    if (num_failed != nullptr) *num_failed = leftover;
    return Status::InsertionFailure("eviction bound exceeded for " +
                                    std::to_string(leftover) + " keys");
  }
  return Status::OK();
}

void MegaKvTable::BulkFind(std::span<const Key> keys, Value* values,
                           uint8_t* found) {
  if (keys.empty()) return;
  const Key* kp = keys.data();
  const uint64_t n = keys.size();
  grid_->LaunchWarps(gpusim::WarpsForItems(n), [&](uint64_t warp) {
    const uint64_t base = warp * gpusim::kWarpSize;
    const uint64_t end = std::min(n, base + gpusim::kWarpSize);
    for (uint64_t i = base; i < end; ++i) {
      Key k = kp[i];
      bool hit = false;
      Value v{};
      if (IsStorableKey(k)) {
        for (int t = 0; t < 2 && !hit; ++t) {
          uint64_t loc = BucketIndex(t, k);
          gpusim::CountBucketRead();
          uint64_t snap[kSlotsPerBucket];
          SnapshotBucket(t, loc, snap);
          for (int s = 0; s < kSlotsPerBucket; ++s) {
            if (PackedKey(snap[s]) == k) {
              v = PackedValue(snap[s]);
              hit = true;
              break;
            }
          }
        }
        if (!hit) {
          for (uint64_t packed : spill_) {
            if (PackedKey(packed) == k) {
              v = PackedValue(packed);
              hit = true;
              break;
            }
          }
        }
      }
      if (found != nullptr) found[i] = hit ? 1 : 0;
      if (hit && values != nullptr) values[i] = v;
    }
  });
}

Status MegaKvTable::BulkErase(std::span<const Key> keys,
                              uint64_t* num_erased) {
  std::atomic<uint64_t> erased{0};
  if (!keys.empty()) {
    const Key* kp = keys.data();
    const uint64_t n = keys.size();
    grid_->LaunchWarps(gpusim::WarpsForItems(n), [&](uint64_t warp) {
      const uint64_t base = warp * gpusim::kWarpSize;
      const uint64_t end = std::min(n, base + gpusim::kWarpSize);
      for (uint64_t i = base; i < end; ++i) {
        Key k = kp[i];
        if (!IsStorableKey(k)) continue;
        for (int t = 0; t < 2; ++t) {
          uint64_t loc = BucketIndex(t, k);
          gpusim::CountBucketRead();
          uint64_t snap[kSlotsPerBucket];
          SnapshotBucket(t, loc, snap);
          for (int s = 0; s < kSlotsPerBucket; ++s) {
            uint64_t packed = snap[s];
            if (PackedKey(packed) == k) {
              std::atomic<uint64_t>* slot = Slot(t, loc, s);
              if (gpusim::AtomicCas64(slot, packed, kEmptySlot) == packed) {
                size_.fetch_sub(1, std::memory_order_relaxed);
                erased.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
    });
  }
  // Parked residents are erasable too (host-side, after the kernel).
  if (!spill_.empty() && !keys.empty()) {
    std::unordered_set<Key> victims(keys.begin(), keys.end());
    auto it = std::remove_if(spill_.begin(), spill_.end(),
                             [&](uint64_t packed) {
                               return victims.count(PackedKey(packed)) > 0;
                             });
    erased.fetch_add(static_cast<uint64_t>(spill_.end() - it),
                     std::memory_order_relaxed);
    spill_.erase(it, spill_.end());
  }
  if (num_erased != nullptr) {
    *num_erased = erased.load(std::memory_order_relaxed);
  }
  if (options_.auto_resize) DYCUCKOO_RETURN_NOT_OK(ResizeToBounds());
  return Status::OK();
}

Status MegaKvTable::Rehash(bool grow) {
  const uint64_t old_buckets = buckets_per_table_;
  const uint64_t old_seeds[2] = {seeds_[0], seeds_[1]};
  const uint64_t old_size = size_.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* old_slots[2] = {slots_[0], slots_[1]};
  slots_[0] = slots_[1] = nullptr;

  // Parked residents get rehomed by this rehash; on failure they go back.
  const std::vector<uint64_t> parked = std::move(spill_);
  spill_.clear();

  const uint64_t old_capacity = 2ull * old_buckets * kSlotsPerBucket;
  uint64_t new_capacity =
      grow ? old_capacity * 2
           : std::max<uint64_t>(old_capacity / 2, 2ull * kSlotsPerBucket);

  // Restores the pre-rehash table exactly on any failure: storage and
  // geometry, the hash seeds (a successful earlier attempt's Init already
  // advanced them — without restoring, the old slots would be unaddressable
  // under the new seeds) and the size counter (polluted by a failed
  // attempt's partial reinserts).
  auto restore = [&] {
    ReleaseStorage();  // frees a partially rebuilt attempt, if any
    slots_[0] = old_slots[0];
    slots_[1] = old_slots[1];
    buckets_per_table_ = old_buckets;
    seeds_[0] = old_seeds[0];
    seeds_[1] = old_seeds[1];
    size_.store(old_size, std::memory_order_relaxed);
    spill_ = parked;
    ++rehash_rollbacks_;
  };

  // Rebuilding can itself fail (cuckoo chains in the new layout); retry with
  // progressively larger capacity.
  for (int attempt = 0; attempt < 8; ++attempt) {
    Status st = Init(new_capacity);
    if (!st.ok()) {
      restore();
      return st;
    }
    std::atomic<uint64_t> failures{0};
    for (int t = 0; t < 2; ++t) {
      grid_->LaunchWarps(old_buckets, [&, t](uint64_t bucket) {
        for (int s = 0; s < kSlotsPerBucket; ++s) {
          uint64_t packed =
              gpusim::Load(&old_slots[t][bucket * kSlotsPerBucket + s]);
          if (PackedKey(packed) == kEmptyKey32) continue;
          uint64_t spilled = 0;
          if (!InsertOne(PackedKey(packed), PackedValue(packed), &spilled)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (uint64_t packed : parked) {
      // A parked pair is older than anything inserted after it was parked;
      // if its key is resident again, the newer value wins and the parked
      // copy is simply dropped (InsertOne would upsert the stale value).
      Key k = PackedKey(packed);
      bool resident = false;
      for (int t = 0; t < 2 && !resident; ++t) {
        uint64_t snap[kSlotsPerBucket];
        SnapshotBucket(t, BucketIndex(t, k), snap);
        for (int s = 0; s < kSlotsPerBucket; ++s) {
          if (PackedKey(snap[s]) == k) {
            resident = true;
            break;
          }
        }
      }
      if (resident) continue;
      uint64_t spilled = 0;
      if (!InsertOne(k, PackedValue(packed), &spilled)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (failures.load(std::memory_order_relaxed) == 0) {
      // Recount from the new layout (exact even if duplicate keys merged).
      uint64_t stored = 0;
      for (int t = 0; t < 2; ++t) {
        for (uint64_t s = 0; s < buckets_per_table_ * kSlotsPerBucket; ++s) {
          if (PackedKey(gpusim::Load(&slots_[t][s])) != kEmptyKey32) {
            ++stored;
          }
        }
      }
      rehashed_kvs_ += stored;
      size_.store(stored, std::memory_order_relaxed);
      ++full_rehashes_;
      for (int t = 0; t < 2; ++t) arena_->FreeArray(old_slots[t]);
      return Status::OK();
    }
    new_capacity *= 2;
  }
  restore();
  return Status::Internal("megakv rehash kept failing; old table restored");
}

Status MegaKvTable::ResizeToBounds() {
  for (int iter = 0; iter < 64; ++iter) {
    double theta = filled_factor();
    if (theta > options_.upper_bound) {
      DYCUCKOO_RETURN_NOT_OK(Rehash(/*grow=*/true));
    } else if (theta < options_.lower_bound &&
               buckets_per_table_ > 1) {
      DYCUCKOO_RETURN_NOT_OK(Rehash(/*grow=*/false));
    } else {
      return Status::OK();
    }
  }
  return Status::OK();
}

uint64_t MegaKvTable::memory_bytes() const {
  return 2ull * buckets_per_table_ * kSlotsPerBucket * sizeof(uint64_t);
}

double MegaKvTable::filled_factor() const {
  uint64_t cap = capacity_slots();
  return cap == 0 ? 0.0 : static_cast<double>(size()) / cap;
}

std::vector<std::pair<MegaKvTable::Key, MegaKvTable::Value>>
MegaKvTable::Dump() const {
  std::vector<std::pair<Key, Value>> out;
  for (int t = 0; t < 2; ++t) {
    for (uint64_t s = 0; s < buckets_per_table_ * kSlotsPerBucket; ++s) {
      uint64_t packed = gpusim::Load(&slots_[t][s]);
      if (PackedKey(packed) != kEmptyKey32) {
        out.emplace_back(PackedKey(packed), PackedValue(packed));
      }
    }
  }
  for (uint64_t packed : spill_) {
    out.emplace_back(PackedKey(packed), PackedValue(packed));
  }
  return out;
}

}  // namespace dycuckoo
