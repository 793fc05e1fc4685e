#include "gpusim/sim_counters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "gpusim/grid.h"

namespace dycuckoo {
namespace gpusim {
namespace {

TEST(SimCountersTest, ResetZeroesEverything) {
  auto& c = SimCounters::Get();
  CountCas(5);
  CountBucketRead(7);
  c.Reset();
  auto snap = c.Capture();
  EXPECT_EQ(snap.atomic_cas, 0u);
  EXPECT_EQ(snap.bucket_reads, 0u);
  EXPECT_EQ(snap.evictions, 0u);
}

TEST(SimCountersTest, HelpersIncrementTheRightCounter) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountBucketRead();
  CountBucketRead();
  CountBucketWrite();
  CountEviction();
  CountLockConflict();
  CountChainNode();
  CountCas(3);
  CountCasFailed();
  CountExch(2);
  CountRacecheckFinding();
  auto snap = c.Capture();
  EXPECT_EQ(snap.bucket_reads, 2u);
  EXPECT_EQ(snap.bucket_writes, 1u);
  EXPECT_EQ(snap.evictions, 1u);
  EXPECT_EQ(snap.lock_conflicts, 1u);
  EXPECT_EQ(snap.chain_nodes_visited, 1u);
  EXPECT_EQ(snap.atomic_cas, 3u);
  EXPECT_EQ(snap.atomic_cas_failed, 1u);
  EXPECT_EQ(snap.atomic_exch, 2u);
  EXPECT_EQ(snap.racecheck_findings, 1u);
}

TEST(SimCountersTest, SnapshotDiff) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountBucketRead();
  auto before = c.Capture();
  CountBucketRead();
  CountBucketRead();
  CountEviction();
  auto delta = c.Capture() - before;
  EXPECT_EQ(delta.bucket_reads, 2u);
  EXPECT_EQ(delta.evictions, 1u);
  EXPECT_EQ(delta.bucket_writes, 0u);
}

TEST(SimCountersTest, ToStringMentionsFields) {
  auto& c = SimCounters::Get();
  c.Reset();
  CountEviction();
  std::string s = c.Capture().ToString();
  EXPECT_NE(s.find("evictions=1"), std::string::npos);
  EXPECT_NE(s.find("cas="), std::string::npos);
  EXPECT_NE(s.find("chain_nodes=0"), std::string::npos);
  EXPECT_NE(s.find("racecheck_findings=0"), std::string::npos);
}

TEST(SimCountersTest, SingletonIdentity) {
  EXPECT_EQ(&SimCounters::Get(), &SimCounters::Get());
}

// Every warp of a multi-worker launch bumps known counts; the launch join
// makes Capture() right after it exact.
TEST(SimCountersTest, CaptureAfterGridLaunchIsExact) {
  Grid grid(4);
  ASSERT_GT(grid.num_threads(), 1u);
  auto& c = SimCounters::Get();
  constexpr uint64_t kWarps = 5000;
  uint64_t want_reads = 0;
  uint64_t want_failed = 0;
  for (uint64_t w = 0; w < kWarps; ++w) {
    want_reads += w % 7 + 1;
    want_failed += (w % 3 == 0) ? 1 : 0;
  }
  for (int launch = 0; launch < 3; ++launch) {
    const auto before = c.Capture();
    grid.LaunchWarps(kWarps, [](uint64_t w) {
      CountBucketRead(w % 7 + 1);
      CountCas();
      if (w % 3 == 0) CountCasFailed();
      CountEviction(2);
    });
    const auto delta = c.Capture() - before;
    EXPECT_EQ(delta.bucket_reads, want_reads) << "launch " << launch;
    EXPECT_EQ(delta.atomic_cas, kWarps) << "launch " << launch;
    EXPECT_EQ(delta.atomic_cas_failed, want_failed) << "launch " << launch;
    EXPECT_EQ(delta.evictions, 2 * kWarps) << "launch " << launch;
    EXPECT_EQ(delta.bucket_writes, 0u) << "launch " << launch;
  }
}

// Bumps evictions from a thread_local destructor, i.e. possibly after the
// thread's own counter block has retired.
struct CountsAtThreadExit {
  ~CountsAtThreadExit() { CountEviction(); }
};

TEST(SimCountersTest, ExitedThreadCountsSurvive) {
  auto& c = SimCounters::Get();
  const auto before = c.Capture();
  std::thread counter([] {
    // Constructed before the first count, so destroyed after the block
    // retires: its count must land in the retired base.
    thread_local CountsAtThreadExit at_exit;
    (void)at_exit;
    CountBucketWrite(3);
    CountLockConflict();
  });
  counter.join();
  std::thread quiet([] {});  // never counts: registers nothing
  quiet.join();
  const auto delta = c.Capture() - before;
  EXPECT_EQ(delta.bucket_writes, 3u);
  EXPECT_EQ(delta.lock_conflicts, 1u);
  EXPECT_EQ(delta.evictions, 1u);
}

TEST(SimCountersTest, ResetLeavesOtherThreadsBlocksAlone) {
  auto& c = SimCounters::Get();
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  auto wait_for = [&](int s) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage >= s; });
  };
  auto advance = [&](int s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      stage = s;
    }
    cv.notify_all();
  };
  std::thread other([&] {
    CountBucketRead(5);
    CountExch(4);
    advance(1);
    wait_for(2);
    CountBucketRead();
  });
  wait_for(1);  // `other` is registered with a non-zero block
  c.Reset();
  auto snap = c.Capture();
  EXPECT_EQ(snap.bucket_reads, 0u);
  EXPECT_EQ(snap.atomic_exch, 0u);
  CountBucketRead(2);
  EXPECT_EQ(c.Capture().bucket_reads, 2u);
  advance(2);
  other.join();
  snap = c.Capture();
  EXPECT_EQ(snap.bucket_reads, 3u);
  EXPECT_EQ(snap.atomic_exch, 0u);
}

TEST(SimCountersTest, ConcurrentCaptureIsMonotonePerField) {
  auto& c = SimCounters::Get();
  const auto base = c.Capture();
  constexpr int kWriters = 3;
  constexpr int kRounds = 20000;
  constexpr int kShortLived = 50;
  std::atomic<bool> go{false};
  std::atomic<int> running{kWriters + 1};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kRounds; ++i) {
        CountBucketRead();
        CountCas(2);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Threads that count and exit while captures run, so blocks retire
  // concurrently with the reads.
  writers.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kShortLived; ++i) {
      std::thread([] { CountBucketRead(10); }).join();
    }
    running.fetch_sub(1, std::memory_order_release);
  });
  go.store(true, std::memory_order_release);
  auto prev = c.Capture() - base;
  int backwards = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const auto now = c.Capture() - base;
    if (now.bucket_reads < prev.bucket_reads) ++backwards;
    if (now.atomic_cas < prev.atomic_cas) ++backwards;
    prev = now;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(backwards, 0);
  const auto total = c.Capture() - base;
  EXPECT_EQ(total.bucket_reads,
            static_cast<uint64_t>(kWriters) * kRounds + 10 * kShortLived);
  EXPECT_EQ(total.atomic_cas, static_cast<uint64_t>(kWriters) * kRounds * 2);
}

}  // namespace
}  // namespace gpusim
}  // namespace dycuckoo
