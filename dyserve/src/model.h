// The correctness oracle's state: a shadow std::unordered_map of what the
// served table must hold, plus order-independent digests of key sets.

#ifndef DYSERVE_SRC_MODEL_H_
#define DYSERVE_SRC_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "workload/feistel.h"

namespace dyserve {

using Key = uint32_t;
using Value = uint32_t;

/// The table reserves the all-ones key as its empty-slot sentinel (and the
/// baselines the one below it); generated keys avoid both.
inline bool IsStorableKey(Key k) {
  return k < std::numeric_limits<Key>::max() - 1;
}

/// Order-independent digest of a key->value set: the wrapping sum of a
/// 64-bit mix of every pair, and the pair count.  Equal sets give equal
/// digests regardless of iteration order.
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;

  void Add(Key k, Value v) {
    sum += dycuckoo::Mix64((static_cast<uint64_t>(k) << 32) | v);
    ++count;
  }
  bool operator==(const Digest&) const = default;
};

/// The shadow model: every key the served table must hold, with its value.
/// A std::unordered_map gives each resident key its slot in a dense array
/// of (key, value) pairs, which serves uniform sampling and answers finds
/// of sampled keys without a map lookup.
class ShadowModel {
 public:
  uint64_t size() const { return resident_.size(); }
  Key key_at(uint64_t i) const { return resident_[i].first; }
  Value value_at(uint64_t i) const { return resident_[i].second; }

  /// A uniformly chosen slot; the model must not be empty.
  uint64_t Sample(dycuckoo::Xoroshiro128* rng) const {
    return rng->NextBounded(resident_.size());
  }

  bool Contains(Key k) const { return pos_.count(k) != 0; }

  void Upsert(Key k, Value v) {
    auto [it, inserted] =
        pos_.try_emplace(k, static_cast<uint32_t>(resident_.size()));
    if (inserted) {
      resident_.emplace_back(k, v);
    } else {
      resident_[it->second].second = v;
    }
  }

  /// Removes the pair in slot `i`; the last pair moves into the gap.
  void EraseAt(uint64_t i) {
    const Key k = resident_[i].first;
    resident_[i] = resident_.back();
    pos_[resident_[i].first] = static_cast<uint32_t>(i);
    resident_.pop_back();
    pos_.erase(k);
  }

  Digest digest() const {
    Digest d;
    for (const auto& [k, v] : resident_) d.Add(k, v);
    return d;
  }

  void Reserve(uint64_t n) {
    pos_.reserve(n);
    resident_.reserve(n);
  }

 private:
  std::unordered_map<Key, uint32_t> pos_;  // key -> slot in resident_
  std::vector<std::pair<Key, Value>> resident_;
};

/// Keys never handed out before: a seeded bijection over a counter, so a
/// fresh key is new to the table (an insert of it is a new key, a find of
/// it a guaranteed miss) without any dedup memory.
class FreshKeys {
 public:
  FreshKeys(uint64_t seed, uint32_t first_counter)
      : perm_(seed), counter_(first_counter) {}

  Key Next() {
    for (;;) {
      const Key k = perm_.Permute(counter_++);
      if (IsStorableKey(k)) return k;
    }
  }

 private:
  dycuckoo::workload::FeistelPermutation perm_;
  uint32_t counter_;
};

/// The keys of one micro-batch: open addressing over a fixed power-of-two
/// table kept at most a quarter full, cleared per batch.
class BatchKeySet {
 public:
  explicit BatchKeySet(uint64_t capacity_pow2)
      : slots_(capacity_pow2, kEmpty), mask_(capacity_pow2 - 1) {}

  void Clear() { std::fill(slots_.begin(), slots_.end(), kEmpty); }

  bool Contains(Key k) const {
    for (uint64_t i = Home(k);; i = (i + 1) & mask_) {
      if (slots_[i] == k) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// False if `k` was already present.
  bool Insert(Key k) {
    for (uint64_t i = Home(k);; i = (i + 1) & mask_) {
      if (slots_[i] == k) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = k;
        return true;
      }
    }
  }

 private:
  static constexpr Key kEmpty = std::numeric_limits<Key>::max();
  uint64_t Home(Key k) const { return dycuckoo::Mix64(k) & mask_; }

  std::vector<Key> slots_;
  uint64_t mask_;
};

}  // namespace dyserve

#endif  // DYSERVE_SRC_MODEL_H_
