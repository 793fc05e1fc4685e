#include "gpusim/grid.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "gpusim/fault_injector.h"
#include "gpusim/virtual_clock.h"

namespace dycuckoo {
namespace gpusim {

namespace {
unsigned DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // Keep several workers even on tiny hosts so warp interleavings (and the
  // lock-conflict behaviour the paper studies) actually occur.
  return std::max(4u, std::min(hw, 16u));
}

std::atomic<unsigned> global_threads{0};

// The grid whose pool the calling thread belongs to, or nullptr.
thread_local const Grid* tls_worker_of = nullptr;
}  // namespace

Grid::Grid(unsigned num_threads) : Grid(GridOptions{num_threads, false, {}}) {}

Grid::Grid(const GridOptions& options) {
  if (options.racecheck) {
    own_checker_ = std::make_unique<RaceCheck>(options.racecheck_config);
    previous_checker_ = RaceCheck::Install(own_checker_.get());
  }
  unsigned num_threads = options.num_threads;
  if (num_threads == 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Grid::~Grid() {
  {
    common::MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
  if (own_checker_ != nullptr &&
      RaceCheck::Active() == own_checker_.get()) {
    RaceCheck::Install(previous_checker_);
  }
}

Grid* Grid::Global() {
  // Leaked intentionally: outlives statics.
  static Grid* grid = new Grid(global_threads.load(std::memory_order_relaxed));
  return grid;
}

void Grid::SetGlobalThreads(unsigned num_threads) {
  global_threads.store(num_threads, std::memory_order_relaxed);
}

void Grid::LaunchWarps(uint64_t num_warps,
                       const std::function<void(uint64_t)>& body) {
  if (num_warps == 0) return;
  if (OnWorker()) {
    // The pool is busy running the caller; waiting on it would deadlock.
    LaunchInline(num_warps, body);
    return;
  }
  // Launches are serialized like kernels on one CUDA stream; the mutex
  // makes concurrent host threads (multiple tables sharing a grid) queue
  // instead of crash.
  common::MutexLock launch_lock(launch_mu_);
  Launch launch;
  launch.num_warps = num_warps;
  launch.body = &body;
  // Capture the checker once so every warp of this launch reports to the
  // same session even if a Scoped checker is swapped mid-flight.
  launch.race_check = RaceCheck::Active();
  if (launch.race_check != nullptr) {
    launch.race_check->OnLaunchBegin(num_warps);
  }
  RunOnWorkers(&launch);
  if (launch.race_check != nullptr) {
    launch.race_check->OnLaunchEnd();
  }
  // Virtual time: one tick per warp, charged on the launching thread after
  // the launch drains so the advance is deterministic regardless of how the
  // workers interleaved.
  if (VirtualClock* clock = VirtualClock::Active()) {
    clock->OnLaunchCompleted(num_warps);
  }
}

void Grid::RunTasks(uint64_t num_tasks,
                    const std::function<void(uint64_t)>& task) {
  if (num_tasks == 0) return;
  if (OnWorker()) {
    for (uint64_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  common::MutexLock launch_lock(launch_mu_);
  Launch launch;
  launch.num_warps = num_tasks;
  launch.body = &task;
  launch.kernel = false;
  RunOnWorkers(&launch);
}

void Grid::LaunchInline(uint64_t num_warps,
                        const std::function<void(uint64_t)>& body) {
  // The same hooks, in the same order, as a worker running the launch.
  RaceCheck* rc = RaceCheck::Active();
  if (rc != nullptr) rc->OnLaunchBegin(num_warps);
  FaultInjector* injector = FaultInjector::Active();
  for (uint64_t w = 0; w < num_warps; ++w) {
    if (injector != nullptr) injector->OnWarpStart(w);
    if (rc != nullptr) rc->OnWarpBegin(w);
    body(w);
    if (rc != nullptr) rc->OnWarpEnd();
  }
  if (rc != nullptr) rc->OnLaunchEnd();
  if (VirtualClock* clock = VirtualClock::Active()) {
    clock->OnLaunchCompleted(num_warps);
  }
}

bool Grid::OnWorker() const { return tls_worker_of == this; }

void Grid::RunOnWorkers(Launch* launch) {
  {
    common::MutexLock lock(mu_);
    DYCUCKOO_CHECK(current_ == nullptr);
    current_ = launch;
    ++launch_epoch_;
  }
  work_cv_.notify_all();

  std::unique_lock<common::Mutex> lock(mu_);
  // Wait until every warp ran AND every worker has left the launch —
  // `launch` lives on the caller's stack frame, so a straggler still
  // touching launch->next after the last warp completes must hold us here.
  done_cv_.wait(lock, [&] {
    return launch->done.load(std::memory_order_acquire) ==
               launch->num_warps &&
           launch->workers_inside == 0;
  });
  current_ = nullptr;
}

void Grid::WorkerLoop() {
  tls_worker_of = this;
  uint64_t seen_epoch = 0;
  for (;;) {
    Launch* launch = nullptr;
    {
      std::unique_lock<common::Mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutting_down_ ||
               (current_ != nullptr && launch_epoch_ != seen_epoch);
      });
      if (shutting_down_) return;
      launch = current_;
      seen_epoch = launch_epoch_;
      ++launch->workers_inside;
    }

    const uint64_t total = launch->num_warps;
    // Dynamic chunked self-scheduling: large enough chunks to amortize the
    // atomic claim, small enough to balance skewed warp costs.
    const uint64_t chunk =
        std::max<uint64_t>(1, total / (workers_.size() * 16));
    uint64_t processed = 0;
    for (;;) {
      uint64_t begin = launch->next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= total) break;
      uint64_t end = std::min(begin + chunk, total);
      FaultInjector* injector =
          launch->kernel ? FaultInjector::Active() : nullptr;
      RaceCheck* rc = launch->race_check;
      for (uint64_t w = begin; w < end; ++w) {
        // Scheduling perturbation: a real GPU gives no ordering guarantee
        // between warps, so an injector may yield here to shuffle
        // interleavings and widen race windows on locks and erase CASes.
        if (injector != nullptr) injector->OnWarpStart(w);
        if (rc != nullptr) rc->OnWarpBegin(w);
        (*launch->body)(w);
        if (rc != nullptr) rc->OnWarpEnd();
      }
      processed += end - begin;
    }
    if (processed > 0) {
      launch->done.fetch_add(processed, std::memory_order_acq_rel);
    }
    {
      common::MutexLock lock(mu_);
      --launch->workers_inside;
      if (launch->workers_inside == 0 &&
          launch->done.load(std::memory_order_acquire) == total) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace gpusim
}  // namespace dycuckoo
