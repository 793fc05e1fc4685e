// Kernel-grid launcher: schedules simulated warps over host worker threads.
//
// A CUDA kernel launch <<<blocks, threads>>> becomes LaunchWarps(n, body):
// `body(warp_id)` is invoked once per warp; warps are distributed over a
// persistent pool of host threads, so warps genuinely race with each other
// (bucket locks, atomics) while each warp's 32 lanes stay lockstep inside
// one host thread — the same concurrency structure as the GPU.

#ifndef DYCUCKOO_GPUSIM_GRID_H_
#define DYCUCKOO_GPUSIM_GRID_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "gpusim/racecheck.h"

namespace dycuckoo {
namespace gpusim {

/// Construction-time configuration for a Grid.
struct GridOptions {
  /// Worker threads; 0 picks a default sized to the host.
  unsigned num_threads = 0;

  /// Install a RaceCheck session for this grid's lifetime: every launch
  /// on it runs checked (fork/join edges, warp contexts) and the report
  /// is available via Grid::race_check().  The previously installed
  /// checker, if any, is restored when the grid is destroyed.
  bool racecheck = false;

  /// Knobs for the grid-owned checker (ignored unless racecheck is set).
  RaceCheckConfig racecheck_config;
};

/// \brief Persistent worker pool that executes grid launches.
///
/// The pool size models the number of concurrently resident warps the device
/// can schedule; it defaults to a small multiple of the host cores so that
/// real interleavings (and hence real lock conflicts) occur even on small
/// machines.
class Grid {
 public:
  /// \param num_threads worker threads; 0 picks a default.
  explicit Grid(unsigned num_threads = 0);
  explicit Grid(const GridOptions& options);
  ~Grid();

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Process-global grid used when a table is not given its own.
  static Grid* Global();

  /// Worker count for Global(); takes effect only if called before the
  /// first Global().  0 picks the default.
  static void SetGlobalThreads(unsigned num_threads);

  /// Runs body(warp_id) for warp_id in [0, num_warps), distributing warps
  /// dynamically over the workers.  Blocks until every warp finished.
  /// Thread-safe: concurrent callers (e.g. several tables sharing one
  /// grid) queue like kernels on a single CUDA stream.
  /// Exempt from thread-safety analysis: the completion wait goes through
  /// std::unique_lock + condition_variable_any, which the analysis cannot
  /// see through.
  void LaunchWarps(uint64_t num_warps,
                   const std::function<void(uint64_t)>& body)
      NO_THREAD_SAFETY_ANALYSIS;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// The grid-owned checker (GridOptions::racecheck), or nullptr.
  RaceCheck* race_check() { return own_checker_.get(); }

 private:
  struct Launch {
    uint64_t num_warps = 0;
    const std::function<void(uint64_t)>* body = nullptr;
    RaceCheck* race_check = nullptr;  // checker active for this launch
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    int workers_inside = 0;  // guarded by Grid::mu_
  };

  // Exempt from thread-safety analysis: the work wait goes through
  // std::unique_lock + condition_variable_any, which the analysis cannot
  // see through.
  void WorkerLoop() NO_THREAD_SAFETY_ANALYSIS;

  common::Mutex launch_mu_;  // serializes whole launches (one "stream")
  common::Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  Launch* current_ GUARDED_BY(mu_) = nullptr;
  uint64_t launch_epoch_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
  std::unique_ptr<RaceCheck> own_checker_;  // GridOptions::racecheck
  RaceCheck* previous_checker_ = nullptr;   // restored at destruction
};

/// Warps needed to cover `items` with one lane per item.
inline uint64_t WarpsForItems(uint64_t items) { return (items + 31) / 32; }

}  // namespace gpusim
}  // namespace dycuckoo

#endif  // DYCUCKOO_GPUSIM_GRID_H_
