// Concurrency tests for the GEMM kernel layer: thread-local scratch arenas
// under simultaneous Sgemm calls from raw threads, and deep scope nesting
// on concurrent pool workers. Designed as a ThreadSanitizer workload for
// the `tsan` preset.

#include "nn/gemm.h"

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/scratch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedmigr::nn {
namespace {

std::vector<float> RandomMatrix(int rows, int cols, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> m(static_cast<size_t>(rows) * cols);
  for (float& v : m) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return m;
}

std::vector<float> SerialGemm(int m, int n, int k,
                              const std::vector<float>& a,
                              const std::vector<float>& b) {
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  Sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n,
        GemmAcc::kOverwrite);
  return c;
}

TEST(GemmConcurrencyTest, ConcurrentCallsFromRawThreadsMatchSerial) {
  constexpr int kThreads = 4;
  constexpr int kM = 96, kN = 80, kK = 64;

  std::vector<std::vector<float>> as, bs, expected;
  for (int t = 0; t < kThreads; ++t) {
    as.push_back(RandomMatrix(kM, kK, 100 + t));
    bs.push_back(RandomMatrix(kK, kN, 200 + t));
    expected.push_back(SerialGemm(kM, kN, kK, as[t], bs[t]));
  }

  std::vector<std::vector<float>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        results[t] = SerialGemm(kM, kN, kK, as[t], bs[t]);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), expected[t].size());
    for (size_t i = 0; i < expected[t].size(); ++i) {
      // Bit-identical: the reduction order is fixed by the micro-panel
      // grid, never by which thread computed which block.
      ASSERT_EQ(results[t][i], expected[t][i]) << "thread " << t << " i=" << i;
    }
  }
}

TEST(GemmConcurrencyTest, ScratchArenaScopesNestAcrossConcurrentWorkers) {
  // Pure arena stress: deep scope nesting with interleaved allocations on
  // many workers at once; every pointer must stay private to its thread.
  util::ThreadPool pool(6);
  constexpr int kTasks = 60;
  std::vector<int> ok(kTasks, 0);
  pool.ParallelFor(kTasks, [&](int t) {
    ScratchArena::Scope outer;
    float* base = ScratchArena::ThreadLocal().AllocFloats(256);
    for (int i = 0; i < 256; ++i) base[i] = static_cast<float>(t);
    for (int depth = 0; depth < 8; ++depth) {
      ScratchArena::Scope inner;
      float* scratch = ScratchArena::ThreadLocal().AllocFloats(512);
      for (int i = 0; i < 512; ++i) scratch[i] = -1.0f;
    }
    bool intact = true;
    for (int i = 0; i < 256; ++i) {
      intact = intact && base[i] == static_cast<float>(t);
    }
    ok[t] = intact ? 1 : 0;
  });
  for (int t = 0; t < kTasks; ++t) EXPECT_EQ(ok[t], 1) << "task " << t;
}

}  // namespace
}  // namespace fedmigr::nn
