#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&hits](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForSingleItem) {
  ThreadPool pool(3);
  std::atomic<int> value{0};
  pool.ParallelFor(1, [&value](int i) { value = i + 41; });
  EXPECT_EQ(value.load(), 41);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(20, [&total](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(50, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order.size(), 50u);
  // With one worker, items arrive in submission order.
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorker) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The worker that ran the throwing task must still be alive and able to
  // execute follow-up work.
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolTest, WaitRethrowsTaskExceptionWithMessage) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("specific failure"); });
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "specific failure");
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   16,
                   [](int i) {
                     if (i == 7) throw std::logic_error("bad index");
                   }),
               std::logic_error);
  // A subsequent batch runs to completion on the same workers.
  std::atomic<int> total{0};
  pool.ParallelFor(16, [&total](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, ExceptionIsClearedAfterRethrow) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("once"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // no pending error: must return cleanly
  SUCCEED();
}

TEST(ThreadPoolTest, MixedThrowingAndHealthyTasksCompleteAll) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  for (int i = 0; i < 12; ++i) {
    pool.Submit([&completed, i] {
      if (i % 4 == 0) throw std::runtime_error("flaky");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // All healthy tasks ran despite the interleaved failures.
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPoolTest, ParallelForRangeCoversAllChunks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(103);
  pool.ParallelForRange(103, 10, [&hits](int64_t begin, int64_t end) {
    // Chunk boundaries must follow the fixed grid regardless of which
    // thread claims the chunk.
    EXPECT_EQ(begin % 10, 0);
    EXPECT_TRUE(end == begin + 10 || end == 103);
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRangeHandlesDegenerateInputs) {
  ThreadPool pool(2);
  // Atomic: the three one-element chunks below may run on both workers.
  std::atomic<int> calls{0};
  pool.ParallelForRange(0, 4, [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  // grain below 1 is clamped to 1, so n = 3 is three chunks.
  pool.ParallelForRange(3, 0, [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, InWorkerThreadFlagTracksPoolMembership) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  std::atomic<int> in_worker{0};
  pool.Submit([&in_worker] {
    if (ThreadPool::InWorkerThread()) in_worker.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(in_worker.load(), 1);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, NestedParallelCallsFromWorkerRunInlineWithoutDeadlock) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  // Both same-pool and cross-pool nesting must complete (inline) instead
  // of blocking a worker on a pool Wait().
  outer.ParallelFor(4, [&](int) {
    outer.ParallelForRange(8, 2, [&total](int64_t begin, int64_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
    inner.ParallelFor(3, [&total](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * (8 + 3));
}

TEST(ThreadPoolTest, ParallelForRangePropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForRange(
                   32, 1,
                   [](int64_t begin, int64_t) {
                     if (begin == 17) throw std::runtime_error("chunk 17");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 30; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 30);
}

}  // namespace
}  // namespace fedmigr::util
