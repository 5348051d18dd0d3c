// ThreadPool torture tests: nested parallel calls, cross-pool submission,
// concurrent external callers and exception storms under contention. These
// exist primarily as a ThreadSanitizer workload — the `tsan` preset runs
// them with every mutex/atomic interleaving instrumented — but they also
// assert full coverage (every index touched exactly once) so they are
// meaningful under the plain presets too.

#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(ThreadPoolStressTest, NestedParallelForFromWorkersCoversAll) {
  ThreadPool pool(4);
  constexpr int kOuter = 16;
  constexpr int kInner = 1000;
  std::vector<std::vector<int>> hits(kOuter,
                                     std::vector<int>(kInner, 0));
  pool.ParallelFor(kOuter, [&](int outer) {
    // Runs on a pool worker, so the nested call must execute inline and
    // must not touch the pool's queue (same-pool dispatch would deadlock).
    pool.ParallelFor(kInner, [&](int i) { ++hits[outer][i]; });
  });
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolStressTest, TriplyNestedParallelCallsRunInline) {
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(6, [&](int) {
    pool.ParallelFor(10, [&](int) {
      pool.ParallelFor(3, [&](int) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 6 * 10 * 3);
}

TEST(ThreadPoolStressTest, SubmitFromWorkerOfSamePoolIsDrained) {
  ThreadPool pool(4);
  constexpr int kSeeds = 32;
  std::atomic<int> executed{0};
  for (int i = 0; i < kSeeds; ++i) {
    pool.Submit([&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      // Re-submission from inside a task: Wait() must not return until the
      // transitively spawned work retires too.
      pool.Submit(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.Wait();
  EXPECT_EQ(executed.load(), 2 * kSeeds);
}

TEST(ThreadPoolStressTest, WorkersOfOnePoolFanOutIntoAnother) {
  ThreadPool outer(3);
  ThreadPool inner(3);
  constexpr int kTasks = 24;
  std::atomic<int> inner_tasks{0};
  outer.ParallelFor(kTasks, [&](int) {
    // From an `outer` worker, `inner.ParallelFor` detects it is on *a*
    // pool worker and runs inline — dispatching would oversubscribe.
    inner.ParallelFor(8, [&](int) {
      inner_tasks.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_tasks.load(), kTasks * 8);
}

TEST(ThreadPoolStressTest, ConcurrentExternalCallersShareOnePool) {
  // Several non-worker threads drive ParallelFor on the same pool at the
  // same time. Each caller's indices must all execute, and Wait() must hold
  // every caller until the combined queue drains.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kN = 4096;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &hits, t] {
      pool.ParallelFor(kN, [&hits, t](int i) { ++hits[t][i]; });
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& row : hits) {
    EXPECT_EQ(std::accumulate(row.begin(), row.end(), int64_t{0}), kN);
  }
}

TEST(ThreadPoolStressTest, ExceptionStormStillRunsEveryTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> started{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&started, i] {
      started.fetch_add(1, std::memory_order_relaxed);
      if (i % 7 == 0) throw std::runtime_error("storm");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The first Wait() call rethrows only after the queue fully drained; no
  // task is abandoned because a sibling threw.
  EXPECT_EQ(started.load(), kTasks);
  pool.Wait();  // error already consumed
}

TEST(ThreadPoolStressTest, PoolChurnWithPendingWorkJoinsCleanly) {
  // Construction/destruction churn with tasks still queued: the destructor
  // must drain the queue and join without losing or double-running work.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(2);
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      // No Wait(): destructor handles the drain.
    }
    EXPECT_EQ(ran.load(), 50);
  }
}

TEST(ThreadPoolStressTest, ParallelForUnderHighContentionCountsExactly) {
  ThreadPool pool(8);
  constexpr int kRounds = 25;
  constexpr int kN = 1000;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(kN, [&sum](int i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), int64_t{kN} * (kN - 1) / 2);
  }
}

}  // namespace
}  // namespace fedmigr::util
