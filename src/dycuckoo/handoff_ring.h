// Bounded handoff ring for displaced cuckoo victims.
//
// The eviction chain of Algorithm 1 overwrites its victim's slot and only
// re-homes the victim on a later voter-loop iteration.  Without a handoff,
// the victim exists only in the evicting warp's registers during that
// window, so a concurrent lock-free FIND can transiently miss a resident
// key.  The ring closes the window: the chain *parks* the displaced pair
// here before overwriting the slot and *retires* it only after the pair is
// durably re-homed (bucket or stash).  Lock-free readers probe
// buckets -> ring -> stash, so the key is visible at every instant.
//
// Slot protocol.  Each slot carries a state word `(gen << 3) | phase`:
//
//   kFree     empty, claimable by a parking chain
//   kSetup    parker is writing key/value (readers skip; short, lock-free)
//   kParked   visible to FIND / claimable by DELETE / updatable by upsert
//   kClaimed  a concurrent DELETE consumed the entry; the owning chain
//             must undo its placement and call FreeClaimed
//   kUpdating an upsert is rewriting the value in place
//
// Every transition is a CAS on the state word, which both serializes
// ownership and gives RaceCheck its release/acquire vector-clock edges;
// key/value cells are written only by the slot owner between CASes (value
// uses the documented last-writer-wins annotation because in-place upserts
// deliberately race with the owner's reads).  The generation counter is
// bumped on every claim *and* on every in-place update, so a retire can
// never mistake an updated or recycled slot for the word it parked
// (no ABA): if anything happened to the slot, the CAS fails and the owner
// re-reads.
//
// The table-wide `epoch` counter increments before every transition that
// can make a key *disappear* from where a reader last looked (park: key
// leaves its bucket; retire: key leaves the ring).  Readers snapshot the
// epoch, probe buckets -> ring -> stash, and only trust a miss if the
// epoch is unchanged — otherwise a displacement moved keys mid-probe and
// the reader retries.  Parks/retires are bounded per kernel launch (chain
// length x batch size), so the retry loop terminates.

#ifndef DYCUCKOO_DYCUCKOO_HANDOFF_RING_H_
#define DYCUCKOO_DYCUCKOO_HANDOFF_RING_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "dycuckoo/subtable.h"
#include "gpusim/atomics.h"
#include "gpusim/racecheck.h"

namespace dycuckoo {

template <typename Key, typename Value>
class HandoffRing {
 public:
  static constexpr Key kEmptyKey = BucketTraits<Key>::kEmptyKey;

  HandoffRing() = default;

  /// (Re)initializes the ring with `capacity` slots, all free.
  /// Host-side only.
  void Reset(uint64_t capacity) {
    words_ = std::vector<std::atomic<uint64_t>>(capacity);
    keys_ = std::vector<std::atomic<Key>>(capacity);
    values_ = std::vector<std::atomic<Value>>(capacity);
    for (auto& k : keys_) k.store(kEmptyKey, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    epoch_.store(0, std::memory_order_relaxed);
  }

  uint64_t capacity() const { return words_.size(); }
  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  bool empty() const { return count() == 0; }

  /// Table-wide displacement epoch; see file comment for the reader
  /// retry contract.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Parks a displaced pair.  On success writes the slot index and the
  /// parked state word the owner later passes to Retire/FreeClaimed.
  /// Returns false when the ring is full (the caller must then resolve the
  /// *incoming* op instead and leave the victim in its bucket).
  bool Park(Key k, Value v, int* slot_out, uint64_t* word_out) {
    const uint64_t n = words_.size();
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t w = gpusim::LoadAcquire(&words_[i]);
      if (PhaseOf(w) != kFree) continue;
      const uint64_t setup = MakeWord(GenOf(w) + 1, kSetup);
      if (!gpusim::AtomicCasWord(&words_[i], w, setup)) continue;
      // Occupancy rises before the entry is visible so a reader that sees
      // count() == 0 cannot be skipping a published entry.
      count_.fetch_add(1, std::memory_order_release);
      // The victim's key is about to leave its bucket: bump the epoch
      // first so any reader that misses it in the bucket either finds it
      // here or observes the epoch change and retries.
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      gpusim::StoreRacy(&values_[i], v);
      gpusim::Store(&keys_[i], k);
      const uint64_t parked = MakeWord(GenOf(w) + 1, kParked);
      bool ok = gpusim::AtomicCasWord(&words_[i], setup, parked);
      DYCUCKOO_DCHECK(ok);
      (void)ok;
      *slot_out = static_cast<int>(i);
      *word_out = parked;
      return true;
    }
    return false;
  }

  /// Current parked value of an owned slot (concurrent upserts may update
  /// it in place; Retire returns the authoritative final value).
  Value CurrentValue(int slot) const {
    return gpusim::Load(&values_[static_cast<uint64_t>(slot)]);
  }

  /// Retires an owned parked entry after its pair has been re-homed.
  /// `*latest_out` receives the final parked value — a concurrent upsert
  /// may have updated it after the owner sampled it, in which case the
  /// caller must re-store the value into the re-homed copy (it still holds
  /// the destination bucket's lock).  Returns false when a concurrent
  /// DELETE claimed the entry first: the caller must unpublish its
  /// re-homed copy, undo size accounting, and call FreeClaimed.
  bool Retire(int slot, uint64_t parked_word, Value* latest_out) {
    const uint64_t i = static_cast<uint64_t>(slot);
    (void)parked_word;  // consumed only by the generation DCHECK below
    // The key is leaving the ring (its re-homed copy is already
    // published): epoch first, then unpublish.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    gpusim::Store(&keys_[i], kEmptyKey);
    for (;;) {
      uint64_t w = gpusim::LoadAcquire(&words_[i]);
      DYCUCKOO_DCHECK(GenOf(w) >= GenOf(parked_word));
      if (PhaseOf(w) == kUpdating) {
        // An upsert holds the slot; it completes without taking locks, so
        // spinning here (even while holding a bucket lock) cannot deadlock.
        std::this_thread::yield();
        continue;
      }
      if (PhaseOf(w) == kClaimed) return false;
      DYCUCKOO_DCHECK(PhaseOf(w) == kParked);
      Value v = gpusim::Load(&values_[i]);
      // Updates bump the generation, so this CAS succeeding proves no
      // upsert intervened between the value read and the release.
      if (gpusim::AtomicCasWord(&words_[i], w, MakeWord(GenOf(w), kFree))) {
        *latest_out = v;
        count_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
  }

  /// Owner-side value refresh of an owned parked entry whose state word is
  /// still `*word`: writes `v` and advances `*word`.  Returns false, writing
  /// nothing, when an upsert updated the entry or a DELETE claimed it
  /// since — their outcome stands.
  bool Refresh(int slot, uint64_t* word, Value v) {
    const uint64_t i = static_cast<uint64_t>(slot);
    const uint64_t busy = MakeWord(GenOf(*word), kUpdating);
    if (!gpusim::AtomicCasWord(&words_[i], *word, busy)) return false;
    gpusim::StoreRacy(&values_[i], v);
    const uint64_t parked = MakeWord(GenOf(*word) + 1, kParked);
    bool ok = gpusim::AtomicCasWord(&words_[i], busy, parked);
    DYCUCKOO_DCHECK(ok);
    (void)ok;
    *word = parked;
    return true;
  }

  /// Releases a slot whose entry a concurrent DELETE claimed (Retire
  /// returned false) after the owner undid its placement.
  void FreeClaimed(int slot) {
    const uint64_t i = static_cast<uint64_t>(slot);
    uint64_t w = gpusim::LoadAcquire(&words_[i]);
    DYCUCKOO_DCHECK(PhaseOf(w) == kClaimed);
    gpusim::Store(&keys_[i], kEmptyKey);
    bool ok = gpusim::AtomicCasWord(&words_[i], w, MakeWord(GenOf(w), kFree));
    DYCUCKOO_DCHECK(ok);
    (void)ok;
    count_.fetch_sub(1, std::memory_order_release);
  }

  /// Lock-free read probe.  A hit is validated by re-reading the key after
  /// the value: the retire path unpublishes the key *before* releasing the
  /// slot and the park path publishes it *after* writing the value, so a
  /// stable key brackets a value that belonged to that key.  A miss is
  /// only trustworthy under the caller's epoch-retry contract.
  bool TryFind(Key k, Value* v_out) const {
    const uint64_t n = words_.size();
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t w = gpusim::LoadAcquire(&words_[i]);
      const uint64_t ph = PhaseOf(w);
      if (ph != kParked && ph != kUpdating) continue;
      if (gpusim::Load(&keys_[i]) != k) continue;
      Value v = gpusim::Load(&values_[i]);
      if (gpusim::Load(&keys_[i]) != k) continue;  // retired mid-read
      *v_out = v;
      return true;
    }
    return false;
  }

  /// DELETE-side claim: atomically consumes a parked entry for `k`.  The
  /// winning CAS linearizes the delete; the owning chain's Retire then
  /// fails and undoes its placement.  Returns false when no parked entry
  /// for `k` exists (a miss is subject to the epoch-retry contract).
  bool TryClaimForDelete(Key k) {
    const uint64_t n = words_.size();
    for (uint64_t i = 0; i < n; ++i) {
      for (;;) {
        uint64_t w = gpusim::LoadAcquire(&words_[i]);
        if (PhaseOf(w) == kUpdating) {
          std::this_thread::yield();  // upserts finish without locks
          continue;
        }
        if (PhaseOf(w) != kParked) break;
        if (gpusim::Load(&keys_[i]) != k) break;
        if (gpusim::AtomicCasWord(&words_[i], w, MakeWord(GenOf(w), kClaimed))) {
          return true;
        }
        // The word moved under us (retire or update): re-judge the slot.
      }
    }
    return false;
  }

  /// Upsert-side in-place update of a parked entry for `k`.  Claims the
  /// slot via kUpdating (generation-tagged, so the key cannot change under
  /// the claim), rewrites the value, and releases with a bumped generation
  /// so the owner's Retire re-reads the fresh value.
  bool UpdateValue(Key k, Value v) {
    const uint64_t n = words_.size();
    for (uint64_t i = 0; i < n; ++i) {
      for (;;) {
        uint64_t w = gpusim::LoadAcquire(&words_[i]);
        if (PhaseOf(w) == kUpdating) {
          std::this_thread::yield();
          continue;
        }
        if (PhaseOf(w) != kParked) break;
        if (gpusim::Load(&keys_[i]) != k) break;
        const uint64_t busy = MakeWord(GenOf(w), kUpdating);
        if (!gpusim::AtomicCasWord(&words_[i], w, busy)) continue;
        gpusim::StoreRacy(&values_[i], v);
        bool ok = gpusim::AtomicCasWord(&words_[i], busy,
                                        MakeWord(GenOf(w) + 1, kParked));
        DYCUCKOO_DCHECK(ok);
        (void)ok;
        return true;
      }
    }
    return false;
  }

  /// Host-side sweep of leftovers after a kernel launch: entries whose
  /// chain failed (parked, fail-buffered) or whose parked copy a DELETE
  /// claimed while the chain was failing.  Invokes `fn(key, value,
  /// claimed)` for each occupied slot and frees it.  Only called between
  /// launches, when no device thread is running.
  template <typename Fn>
  void HostSweepLeftovers(Fn&& fn) {
    for (uint64_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i].load(std::memory_order_relaxed);
      if (PhaseOf(w) == kFree) continue;
      DYCUCKOO_DCHECK(PhaseOf(w) == kParked || PhaseOf(w) == kClaimed);
      fn(keys_[i].load(std::memory_order_relaxed),
         values_[i].load(std::memory_order_relaxed), PhaseOf(w) == kClaimed);
      keys_[i].store(kEmptyKey, std::memory_order_relaxed);
      words_[i].store(MakeWord(GenOf(w), kFree), std::memory_order_relaxed);
      count_.fetch_sub(1, std::memory_order_relaxed);
    }
    DYCUCKOO_DCHECK(count_.load(std::memory_order_relaxed) == 0);
  }

  /// Host-side: drops everything (table Clear).
  void Clear() {
    HostSweepLeftovers([](Key, Value, bool) {});
  }

 private:
  // Low 3 bits: phase.  Upper 61 bits: per-slot generation, bumped at
  // every claim and every in-place update (ABA tag).
  enum Phase : uint64_t {
    kFree = 0,
    kSetup = 1,
    kParked = 2,
    kClaimed = 3,
    kUpdating = 4,
  };
  static constexpr uint64_t PhaseOf(uint64_t w) { return w & 7u; }
  static constexpr uint64_t GenOf(uint64_t w) { return w >> 3; }
  static constexpr uint64_t MakeWord(uint64_t gen, uint64_t phase) {
    return (gen << 3) | phase;
  }

  std::vector<std::atomic<uint64_t>> words_;
  std::vector<std::atomic<Key>> keys_;
  std::vector<std::atomic<Value>> values_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace dycuckoo

#endif  // DYCUCKOO_DYCUCKOO_HANDOFF_RING_H_
