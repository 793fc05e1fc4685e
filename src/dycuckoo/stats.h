// Operation statistics exposed by the DyCuckoo table.

#ifndef DYCUCKOO_DYCUCKOO_STATS_H_
#define DYCUCKOO_DYCUCKOO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/counter_set.h"

namespace dycuckoo {

// The counter set, declared once: X(field) per counter, in member order.
#define DYCUCKOO_TABLE_STATS(X)                                              \
  X(inserts_new)     /* KV placed into an empty slot */                      \
  X(inserts_updated) /* existing key overwritten */                          \
  X(insert_failures) /* eviction chain exceeded bound */                     \
  X(finds)                                                                   \
  X(find_hits)                                                               \
  X(erases)                                                                  \
  X(erase_hits)                                                              \
  X(evictions)                                                               \
  X(insert_reprobe_updates) /* dup averted at placement */                   \
  X(upsizes)                                                                 \
  X(downsizes)                                                               \
  X(rehashed_kvs)  /* KVs touched by resize kernels */                       \
  X(residual_kvs)  /* downsize overflow reinsertions */                      \
  X(stash_inserts) /* failures absorbed by the stash */                      \
  X(stash_drains)  /* stash entries moved back */                            \
  /* Eviction displacement handoff (docs/robustness.md "Consistency       */ \
  /* guarantees"): victims parked before their slot is overwritten, reads */ \
  /* served from the ring, ring-full fallbacks, and DELETEs that consumed */ \
  /* a parked entry.                                                      */ \
  X(parked_victims)                                                          \
  X(handoff_hits)                                                            \
  X(handoff_full_fallbacks)                                                  \
  X(handoff_deletes)                                                         \
  /* Recovery / fault-survival counters: how often the table degraded or  */ \
  /* rolled back instead of failing (see docs/robustness.md).             */ \
  X(downsize_rollbacks) /* downsize undone losslessly */                     \
  X(degraded_batches)   /* batch ran without pre-grow */                     \
  X(resize_oom_skips)   /* auto-resize skipped on OOM */                     \
  X(recovery_spills)    /* keys force-parked in stash */                     \
  /* Online invariant scrubber (DynamicTable::ScrubBuckets / ScrubAll).   */ \
  X(scrub_buckets_scanned)                                                   \
  X(scrub_misplaced_found)      /* pairs outside probe set */                \
  X(scrub_misplaced_repaired)   /* pairs re-homed */                         \
  X(scrub_stash_fixes)          /* stash counter repaired */                 \
  X(scrub_duplicates_collapsed) /* shadowed copies freed */                  \
  X(scrub_passes)               /* full sweeps completed */                  \
  /* Silent-data-corruption defense (integrity tags; docs/robustness.md): */ \
  /* tag-mismatched slots detected, pairs restored from checkpoint + WAL, */ \
  /* and corruption durable state could not resolve (shard degrades).     */ \
  X(scrub_corrupted_slots)                                                   \
  X(scrub_repaired_from_wal)                                                 \
  X(scrub_unrepairable)

/// Cumulative counters since table construction.  Thread-safe (kernels
/// update them from many warps); read with Capture().
class TableStats {
 public:
  DYCUCKOO_TABLE_STATS(DYCUCKOO_COUNTER_ATOMIC)

  struct Snapshot {
    DYCUCKOO_TABLE_STATS(DYCUCKOO_COUNTER_VALUE)

    std::string ToString() const;
  };

  Snapshot Capture() const {
    Snapshot s;
    DYCUCKOO_TABLE_STATS(DYCUCKOO_COUNTER_CAPTURE)
    return s;
  }

  /// Adds `d`'s counts (a kernel warp's local tally, flushed once per warp).
  void Add(const Snapshot& d) { DYCUCKOO_TABLE_STATS(DYCUCKOO_COUNTER_ADD) }
};

}  // namespace dycuckoo

#endif  // DYCUCKOO_DYCUCKOO_STATS_H_
