// Expansions for a counter set declared once, as an X-macro list of field
// names:
//
//   #define MY_COUNTERS(X) X(first) /* comment */ X(second) ...
//
// The owning type expands its list with DYCUCKOO_COUNTER_ATOMIC for the
// live members, DYCUCKOO_COUNTER_VALUE for the plain Snapshot fields, and
// DYCUCKOO_COUNTER_CAPTURE / DYCUCKOO_COUNTER_PRINT / DYCUCKOO_COUNTER_ADD
// inside Capture(), ToString() and Add(), so a counter is named in its
// list and nowhere else.  Members stay in list order, which is their
// declaration order.

#ifndef DYCUCKOO_COMMON_COUNTER_SET_H_
#define DYCUCKOO_COMMON_COUNTER_SET_H_

#include <atomic>
#include <cstdint>

/// The live counter: relaxed, monotonic.
#define DYCUCKOO_COUNTER_ATOMIC(field) std::atomic<uint64_t> field{0};

/// The Snapshot copy.
#define DYCUCKOO_COUNTER_VALUE(field) uint64_t field = 0;

/// In Capture(): copies the live counter into Snapshot `s`.
#define DYCUCKOO_COUNTER_CAPTURE(field) \
  s.field = this->field.load(std::memory_order_relaxed);

/// In ToString(): writes `field=value` to stream `os`, preceded by `sep`
/// (which the caller starts as "").
#define DYCUCKOO_COUNTER_PRINT(field) \
  os << sep << #field << '=' << this->field; \
  sep = " ";

/// In Add(): adds Snapshot `d`'s count to the live counter, skipping the
/// atomic when it is zero.
#define DYCUCKOO_COUNTER_ADD(field) \
  if (d.field != 0) this->field.fetch_add(d.field, std::memory_order_relaxed);

#endif  // DYCUCKOO_COMMON_COUNTER_SET_H_
