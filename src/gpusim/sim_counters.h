// Profiling counters for the simulated device.
//
// These stand in for the GPU profiler (nvprof) used by the paper: they count
// atomic operations, lock conflicts, bucket (cache-line) transactions and
// cuckoo evictions.  Benches snapshot and diff them around a measured region.
//
// Storage is per thread.  Each counting thread owns one 64-byte-aligned
// block, found through a trivial thread_local pointer and registered on
// first use; only the owner writes it, so an increment is a relaxed load
// plus store, never a read-modify-write on a shared cache line.  When a
// thread exits, its block is folded into a retired-totals base.
//
// Capture() sums the retired base and every registered block.  It is exact
// for every increment that happens-before the call: increments made by
// grid workers during a launch qualify once the launch has returned (the
// launch join is a happens-before barrier), as do the calling thread's own
// and those of joined threads.  Capture() racing live increments reads each
// field at some point between, and successive captures never go backwards.
//
// Reset() does not write any block: it records the current totals as a
// baseline that Capture() subtracts, so counting restarts from zero.
//
// The counter set is declared once, in DYCUCKOO_SIM_COUNTERS below; the
// block layout, Snapshot, Capture(), operator-, ToString() and the Count*()
// helpers are all generated from it.

#ifndef DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
#define DYCUCKOO_GPUSIM_SIM_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dycuckoo {
namespace gpusim {

// X(field, ToString label, increment helper)
#define DYCUCKOO_SIM_COUNTERS(X)                                             \
  X(atomic_cas, "cas", CountCas)                                             \
  X(atomic_cas_failed, "cas_failed", CountCasFailed)                         \
  X(atomic_exch, "exch", CountExch)                                          \
  /* one per bucket (cache line) read */                                     \
  X(bucket_reads, "bucket_reads", CountBucketRead)                           \
  /* one per bucket write transaction */                                     \
  X(bucket_writes, "bucket_writes", CountBucketWrite)                        \
  /* cuckoo displacement events */                                           \
  X(evictions, "evictions", CountEviction)                                   \
  /* failed bucket-lock attempts */                                          \
  X(lock_conflicts, "lock_conflicts", CountLockConflict)                     \
  /* slab-list traversal hops */                                             \
  X(chain_nodes_visited, "chain_nodes", CountChainNode)                      \
  /* distinct RaceCheck defects */                                           \
  X(racecheck_findings, "racecheck_findings", CountRacecheckFinding)

namespace sim_counters_internal {

enum Field : int {
#define DYCUCKOO_SIM_COUNTER_INDEX(field, label, helper) k_##field,
  DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_INDEX)
#undef DYCUCKOO_SIM_COUNTER_INDEX
  kNumFields
};

/// One thread's counters; written only by the owning thread.  Aligned so
/// no two threads' blocks share a cache line.
struct alignas(64) Block {
  std::atomic<uint64_t> v[kNumFields] = {};
};

/// The calling thread's block, or null before its first count and after
/// it has retired.  Constant-initialized, so access needs no TLS guard.
extern constinit thread_local Block* tls_block;

/// First count on this thread (registers a block) or a count made after
/// the thread's block retired (added straight to the retired base).
void AddSlow(Field field, uint64_t n);

inline void Add(Field field, uint64_t n) {
  Block* block = tls_block;
  if (block == nullptr) [[unlikely]] {
    AddSlow(field, n);
    return;
  }
  std::atomic<uint64_t>& word = block->v[field];
  word.store(word.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace sim_counters_internal

class SimCounters {
 public:
  static SimCounters& Get();

  /// Restarts every counter from zero (see the file comment).
  void Reset();

  /// Immutable snapshot for before/after diffs.
  struct Snapshot {
#define DYCUCKOO_SIM_COUNTER_FIELD(field, label, helper) uint64_t field = 0;
    DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_FIELD)
#undef DYCUCKOO_SIM_COUNTER_FIELD

    Snapshot operator-(const Snapshot& rhs) const;
    std::string ToString() const;
  };

  Snapshot Capture() const;
};

#define DYCUCKOO_SIM_COUNTER_HELPER(field, label, helper)            \
  inline void helper(uint64_t n = 1) {                               \
    sim_counters_internal::Add(sim_counters_internal::k_##field, n); \
  }
DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_HELPER)
#undef DYCUCKOO_SIM_COUNTER_HELPER

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_SIM_COUNTERS_H_
