#include "dycuckoo/options.h"

#include <sstream>

namespace dycuckoo {

Status DyCuckooOptions::Validate() const {
  if (num_subtables < 2 || num_subtables > 16) {
    return Status::InvalidArgument("num_subtables must be in [2, 16]");
  }
  if (!(lower_bound > 0.0 && lower_bound < upper_bound && upper_bound <= 1.0)) {
    return Status::InvalidArgument(
        "require 0 < lower_bound < upper_bound <= 1");
  }
  // Paper Section IV-B: an upsize doubles ONE of the d equally-sized
  // subtables, shrinking the filled factor only to theta * d/(d+1) — not to
  // theta/2 as a whole-table rehash would.  If the shrink landed at or below
  // alpha, the very next batch of deletions would trigger a downsize and the
  // table could oscillate between resize directions on every flush.  An
  // upsize fires only when theta > beta, so the post-upsize factor
  // exceeds beta * d/(d+1); the paper's hard requirement alpha < d/(d+1) is
  // the beta -> 1 limit of the no-oscillation condition alpha <=
  // beta * d/(d+1).  For d=2 the boundary is 2/3: alpha = 0.66 is accepted,
  // alpha = 0.667 is rejected.
  double d = static_cast<double>(num_subtables);
  if (lower_bound >= d / (d + 1.0)) {
    std::ostringstream os;
    os << "lower_bound must be < d/(d+1) = " << d / (d + 1.0);
    return Status::InvalidArgument(os.str());
  }
  if (initial_capacity == 0) {
    return Status::InvalidArgument("initial_capacity must be > 0");
  }
  if (max_eviction_chain < 1) {
    return Status::InvalidArgument("max_eviction_chain must be >= 1");
  }
  if (handoff_capacity < 1) {
    return Status::InvalidArgument("handoff_capacity must be >= 1");
  }
  if (eviction_delay_spins_for_test < 0) {
    return Status::InvalidArgument(
        "eviction_delay_spins_for_test must be >= 0");
  }
  return Status::OK();
}

}  // namespace dycuckoo
