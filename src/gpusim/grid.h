// Kernel-grid launcher: schedules simulated warps over host worker threads.
//
// A CUDA kernel launch <<<blocks, threads>>> becomes LaunchWarps(n, body):
// `body(warp_id)` is invoked once per warp; warps are distributed over a
// persistent pool of host threads, so warps genuinely race with each other
// (bucket locks, atomics) while each warp's 32 lanes stay lockstep inside
// one host thread — the same concurrency structure as the GPU.
//
// RunTasks(n, task) spreads n host tasks (not kernels) over the same
// workers: a sharded server runs its shards' serving steps this way, so
// they overlap without a thread of their own.  A launch issued from a
// worker of this grid — from inside a task or a warp — runs inline on
// that worker, its warps in order, with the same virtual-clock ticks,
// RaceCheck events and FaultInjector hooks as a top-level launch.

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
  /// Called from one of this grid's workers, the launch runs inline on
  /// that worker instead (see the file comment).
  /// Exempt from thread-safety analysis: the completion wait goes through
  /// std::unique_lock + condition_variable_any, which the analysis cannot
  /// see through.
  void LaunchWarps(uint64_t num_warps,
                   const std::function<void(uint64_t)>& body)
      NO_THREAD_SAFETY_ANALYSIS;

  /// Runs task(i) for i in [0, num_tasks) on the workers, handing tasks
  /// out in index order, and blocks until all finished.  Host work, not a
  /// kernel: no virtual-clock ticks, RaceCheck events or FaultInjector
  /// hooks of its own; launches the tasks issue run inline.  Queues behind
  /// (and ahead of) launches from other host threads like one launch.
  /// Called from a worker of this grid, the tasks run inline in order.
  void RunTasks(uint64_t num_tasks,
                const std::function<void(uint64_t)>& task)
      NO_THREAD_SAFETY_ANALYSIS;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// The grid-owned checker (GridOptions::racecheck), or nullptr.
  RaceCheck* race_check() { return own_checker_.get(); }

 private:
  struct Launch {
    uint64_t num_warps = 0;
    const std::function<void(uint64_t)>* body = nullptr;
    bool kernel = true;               // false for RunTasks: no warp hooks
    RaceCheck* race_check = nullptr;  // checker active for this launch
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    int workers_inside = 0;  // guarded by Grid::mu_
  };

  // Hands `launch` to the workers and waits until it drained.  Exempt
  // from thread-safety analysis like LaunchWarps.
  void RunOnWorkers(Launch* launch) NO_THREAD_SAFETY_ANALYSIS;

  // A whole launch on the calling worker, warps in order.
  static void LaunchInline(uint64_t num_warps,
                           const std::function<void(uint64_t)>& body);

  // True on the threads of this grid's pool.
  bool OnWorker() const;

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
