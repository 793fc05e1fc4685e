#include "gpusim/sim_counters.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dycuckoo {
namespace gpusim {
namespace sim_counters_internal {

constinit thread_local Block* tls_block = nullptr;

namespace {

using Totals = std::array<uint64_t, kNumFields>;

struct Registry {
  common::Mutex mu;
  std::vector<Block*> live GUARDED_BY(mu);
  Totals retired GUARDED_BY(mu) = {};   // sum over exited threads' blocks
  Totals baseline GUARDED_BY(mu) = {};  // totals at the last Reset()

  Totals Sum() REQUIRES(mu) {
    Totals sum = retired;
    for (const Block* block : live) {
      for (int f = 0; f < kNumFields; ++f) {
        sum[f] += block->v[f].load(std::memory_order_relaxed);
      }
    }
    return sum;
  }
};

// Never destroyed: threads, the main thread included, retire their blocks
// into it while exiting, which may be after static destruction began.
Registry& GetRegistry() {
  static Registry* const registry = new Registry;
  return *registry;
}

// Set once this thread's block has retired; later counts (from other
// thread_local destructors) go straight to the retired base.
constinit thread_local bool tls_retired = false;

// Constructed on a thread's first count; its destructor runs at thread
// exit, folds the block into the retired base and frees it.
struct BlockRetirer {
  BlockRetirer() = default;
  BlockRetirer(const BlockRetirer&) = delete;
  BlockRetirer& operator=(const BlockRetirer&) = delete;

  ~BlockRetirer() {
    Block* block = tls_block;
    tls_block = nullptr;
    tls_retired = true;
    if (block == nullptr) return;
    Registry& registry = GetRegistry();
    {
      common::MutexLock lock(registry.mu);
      for (int f = 0; f < kNumFields; ++f) {
        registry.retired[f] += block->v[f].load(std::memory_order_relaxed);
      }
      std::erase(registry.live, block);
    }
    delete block;
  }
};

}  // namespace

void AddSlow(Field field, uint64_t n) {
  Registry& registry = GetRegistry();
  if (tls_retired) {
    common::MutexLock lock(registry.mu);
    registry.retired[field] += n;
    return;
  }
  [[maybe_unused]] static thread_local BlockRetirer retirer;
  auto* block = new Block;
  block->v[field].store(n, std::memory_order_relaxed);
  {
    common::MutexLock lock(registry.mu);
    registry.live.push_back(block);
  }
  tls_block = block;
}

}  // namespace sim_counters_internal

namespace internal = sim_counters_internal;

SimCounters& SimCounters::Get() {
  static SimCounters instance;
  return instance;
}

void SimCounters::Reset() {
  internal::Registry& registry = internal::GetRegistry();
  common::MutexLock lock(registry.mu);
  registry.baseline = registry.Sum();
}

SimCounters::Snapshot SimCounters::Capture() const {
  internal::Registry& registry = internal::GetRegistry();
  internal::Totals totals;
  {
    common::MutexLock lock(registry.mu);
    totals = registry.Sum();
    for (int f = 0; f < internal::kNumFields; ++f) {
      totals[f] -= registry.baseline[f];
    }
  }
  Snapshot s;
#define DYCUCKOO_SIM_COUNTER_CAPTURE(field, label, helper) \
  s.field = totals[internal::k_##field];
  DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_CAPTURE)
#undef DYCUCKOO_SIM_COUNTER_CAPTURE
  return s;
}

SimCounters::Snapshot SimCounters::Snapshot::operator-(
    const Snapshot& rhs) const {
  Snapshot d;
#define DYCUCKOO_SIM_COUNTER_DIFF(field, label, helper) \
  d.field = this->field - rhs.field;
  DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_DIFF)
#undef DYCUCKOO_SIM_COUNTER_DIFF
  return d;
}

std::string SimCounters::Snapshot::ToString() const {
  std::ostringstream os;
  const char* sep = "";
#define DYCUCKOO_SIM_COUNTER_PRINT(field, label, helper) \
  os << sep << (label) << '=' << this->field;            \
  sep = " ";
  DYCUCKOO_SIM_COUNTERS(DYCUCKOO_SIM_COUNTER_PRINT)
#undef DYCUCKOO_SIM_COUNTER_PRINT
  return os.str();
}

}  // namespace gpusim
}  // namespace dycuckoo
