#include "gpusim/grid.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/atomics.h"
#include "gpusim/fault_injector.h"
#include "gpusim/racecheck.h"
#include "gpusim/virtual_clock.h"

namespace dycuckoo {
namespace gpusim {
namespace {

TEST(GridTest, WarpsForItems) {
  EXPECT_EQ(WarpsForItems(0), 0u);
  EXPECT_EQ(WarpsForItems(1), 1u);
  EXPECT_EQ(WarpsForItems(32), 1u);
  EXPECT_EQ(WarpsForItems(33), 2u);
  EXPECT_EQ(WarpsForItems(64), 2u);
  EXPECT_EQ(WarpsForItems(1000), 32u);
}

TEST(GridTest, EveryWarpRunsExactlyOnce) {
  Grid grid(4);
  constexpr uint64_t kWarps = 10007;  // prime, exercises chunk remainders
  std::vector<std::atomic<int>> hits(kWarps);
  grid.LaunchWarps(kWarps, [&](uint64_t w) { hits[w].fetch_add(1); });
  for (uint64_t w = 0; w < kWarps; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "warp " << w;
  }
}

TEST(GridTest, ZeroWarpsReturnsImmediately) {
  Grid grid(2);
  bool ran = false;
  grid.LaunchWarps(0, [&](uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(GridTest, SingleWarp) {
  Grid grid(4);
  std::atomic<uint64_t> sum{0};
  grid.LaunchWarps(1, [&](uint64_t w) { sum.fetch_add(w + 123); });
  EXPECT_EQ(sum.load(), 123u);
}

TEST(GridTest, SumOfWarpIds) {
  Grid grid(4);
  std::atomic<uint64_t> sum{0};
  constexpr uint64_t kWarps = 5000;
  grid.LaunchWarps(kWarps, [&](uint64_t w) { sum.fetch_add(w); });
  EXPECT_EQ(sum.load(), kWarps * (kWarps - 1) / 2);
}

TEST(GridTest, SequentialLaunchesReuseWorkers) {
  Grid grid(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    grid.LaunchWarps(97, [&](uint64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97);
  }
}

TEST(GridTest, WorkersActuallyParallel) {
  // With more warps than workers, at least two distinct thread ids must
  // participate (or one on a truly single-threaded pool of size 1).
  Grid grid(4);
  std::atomic<uint64_t> distinct_threads{0};
  std::atomic<uint64_t> mask{0};
  grid.LaunchWarps(10000, [&](uint64_t) {
    static thread_local bool counted = false;
    if (!counted) {
      counted = true;
      distinct_threads.fetch_add(1);
    }
    mask.fetch_add(0);
  });
  EXPECT_GE(distinct_threads.load(), 1u);
  EXPECT_EQ(grid.num_threads(), 4u);
}

TEST(GridTest, DefaultThreadCountIsPositive) {
  Grid grid;
  EXPECT_GE(grid.num_threads(), 1u);
}

TEST(GridTest, GlobalGridSingleton) {
  EXPECT_EQ(Grid::Global(), Grid::Global());
}

TEST(GridTest, ConcurrentHostThreadsShareOneGrid) {
  // Several host threads launching on the same grid must queue like
  // kernels on one stream, not crash or interleave work.
  Grid grid(4);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> hosts;
  for (int h = 0; h < 4; ++h) {
    hosts.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        grid.LaunchWarps(50, [&](uint64_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : hosts) t.join();
  EXPECT_EQ(total.load(), 4u * 100 * 50);
}

TEST(GridTest, TinyLaunchStorm) {
  // Regression for a use-after-free: the launcher used to return (and
  // destroy the stack Launch) while a straggler worker could still touch
  // launch->next.  Thousands of tiny launches maximize that window.
  Grid grid(8);
  std::atomic<uint64_t> total{0};
  for (int i = 0; i < 3000; ++i) {
    uint64_t warps = 1 + (i % 5);
    grid.LaunchWarps(warps, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // 600 cycles of warp counts 1..5 = 600 * 15.
  EXPECT_EQ(total.load(), 9000u);
}

TEST(GridTest, LargeLaunchStress) {
  Grid grid(6);
  std::atomic<uint64_t> count{0};
  grid.LaunchWarps(200000, [&](uint64_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 200000u);
}

// --- Host tasks and inline launches -----------------------------------------

TEST(GridTest, RunTasksRunsEveryTaskOnceOnTheWorkers) {
  Grid grid(3);
  constexpr uint64_t kTasks = 40;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int> on_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  grid.RunTasks(kTasks, [&](uint64_t t) {
    hits[t].fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  for (uint64_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t].load(), 1);
  EXPECT_EQ(on_caller.load(), 0) << "tasks run on the grid's workers";
}

TEST(GridTest, RunTasksOnOneWorkerKeepsIndexOrder) {
  Grid grid(1);
  std::vector<uint64_t> order;
  grid.RunTasks(6, [&](uint64_t t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(GridTest, LaunchFromAWarpRunsInlineInOrderOnThatWorker) {
  Grid grid(2);
  std::vector<uint64_t> order;
  std::vector<std::thread::id> threads;
  std::thread::id outer_thread;
  grid.LaunchWarps(1, [&](uint64_t) {
    outer_thread = std::this_thread::get_id();
    // Both workers could take warps of a normal launch; this one must run
    // entirely on the calling worker, which would otherwise deadlock
    // waiting for itself.
    grid.LaunchWarps(9, [&](uint64_t w) {
      order.push_back(w);
      threads.push_back(std::this_thread::get_id());
    });
  });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  for (const std::thread::id& t : threads) EXPECT_EQ(t, outer_thread);
}

TEST(GridTest, TasksOverlapAndTheirLaunchesStayOnTheirWorker) {
  Grid grid(4);
  constexpr uint64_t kTasks = 8;
  std::vector<std::vector<uint64_t>> order(kTasks);
  std::vector<int> foreign(kTasks, 0);
  grid.RunTasks(kTasks, [&](uint64_t t) {
    const std::thread::id me = std::this_thread::get_id();
    for (int round = 0; round < 20; ++round) {
      grid.LaunchWarps(5, [&](uint64_t w) {
        order[t].push_back(w);
        if (std::this_thread::get_id() != me) ++foreign[t];
      });
    }
  });
  for (uint64_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(order[t].size(), 100u);
    for (size_t i = 0; i < order[t].size(); ++i) {
      EXPECT_EQ(order[t][i], i % 5);
    }
    EXPECT_EQ(foreign[t], 0);
  }
}

TEST(GridTest, InlineLaunchesTickTheClockLikeTopLevelOnes) {
  Grid grid(2);
  VirtualClock top, inline_clock, nested;
  {
    ScopedVirtualClock scoped(&top);
    for (int i = 0; i < 3; ++i) grid.LaunchWarps(5, [](uint64_t) {});
  }
  {
    // Tasks charge nothing of their own; their launches charge exactly
    // what the same launches charge at top level.
    ScopedVirtualClock scoped(&inline_clock);
    grid.RunTasks(3, [&](uint64_t) { grid.LaunchWarps(5, [](uint64_t) {}); });
  }
  {
    // A launch from a warp: the outer warp's tick plus the inner five.
    ScopedVirtualClock scoped(&nested);
    grid.LaunchWarps(1, [&](uint64_t) { grid.LaunchWarps(5, [](uint64_t) {}); });
  }
  EXPECT_EQ(top.Now(), 15u);
  EXPECT_EQ(inline_clock.Now(), top.Now());
  EXPECT_EQ(inline_clock.work_ticks(), top.work_ticks());
  EXPECT_EQ(nested.Now(), 6u);
}

TEST(GridTest, InlineLaunchesCallTheFaultInjectorPerWarp) {
  Grid grid(2);
  FaultInjectorConfig cfg;
  cfg.warp_yield_probability = 1.0;  // every warp start is counted
  ScopedFaultInjection scoped(cfg);
  grid.RunTasks(2, [&](uint64_t) { grid.LaunchWarps(7, [](uint64_t) {}); });
  EXPECT_EQ(scoped.injector().warps_delayed(), 14u)
      << "tasks have no warp hooks; each inline warp has one";
}

// Two warps of one launch storing the same word unsynchronized: a
// write-write race RaceCheck must report.
RaceReport RacyLaunch(Grid* grid, bool from_task) {
  ScopedRaceCheck scoped;
  std::atomic<uint32_t> word{0};
  const auto racy = [&](uint64_t w) {
    Store(&word, static_cast<uint32_t>(w));
  };
  if (from_task) {
    grid->RunTasks(1, [&](uint64_t) { grid->LaunchWarps(4, racy); });
  } else {
    grid->LaunchWarps(4, racy);
  }
  return scoped.checker().Report();
}

TEST(GridTest, InlineLaunchesEmitTheSameRaceCheckEvents) {
  Grid grid(2);
  const RaceReport top = RacyLaunch(&grid, /*from_task=*/false);
  const RaceReport inline_report = RacyLaunch(&grid, /*from_task=*/true);
  ASSERT_FALSE(top.clean());
  EXPECT_EQ(inline_report.launches, top.launches);
  EXPECT_EQ(inline_report.checked_stores, top.checked_stores);
  EXPECT_EQ(inline_report.Digest(), top.Digest())
      << "inline:\n" << inline_report.ToString() << "\ntop-level:\n"
      << top.ToString();

  // A launch from a warp is a launch of its own, with its own warps.
  ScopedRaceCheck scoped;
  grid.LaunchWarps(1, [&](uint64_t) { grid.LaunchWarps(3, [](uint64_t) {}); });
  EXPECT_EQ(scoped.checker().Report().launches, 2u);
}

}  // namespace
}  // namespace gpusim
}  // namespace dycuckoo
