// Fixed-size thread pool used to train simulated clients in parallel.

#ifndef FEDMIGR_UTIL_THREAD_POOL_H_
#define FEDMIGR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedmigr::util {

// Work-queue thread pool. Tasks are void() closures; `Wait()` blocks until
// the queue drains and all workers are idle, which is the synchronization
// point between FL phases (all clients finish local updating before the
// server computes the migration policy).
//
// A task that throws does not kill its worker thread: the first exception
// is captured and rethrown from the next Wait() (and thus from
// ParallelFor); later exceptions from the same batch are dropped. A still
// pending exception at destruction time is logged, not rethrown. The
// captured exception is *transferred*, never shared: the worker moves its
// reference into `pending_error_` under the pool mutex and Wait() moves it
// back out, so the exception object is only ever touched by one thread at
// a time (the TSan-verified ownership handoff; see WorkerLoop).
//
// Nesting: ParallelFor called from inside any pool worker (this pool or
// another) runs its body inline on the calling thread instead of
// dispatching. Dispatching from a worker of the same pool would deadlock
// (Wait() can never see the caller's own task retire), and dispatching from
// a worker of another pool would oversubscribe; both collapse to sequential
// execution with identical results.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);
  void Wait();

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  // True when the calling thread is a worker of *any* ThreadPool.
  static bool InWorkerThread();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr pending_error_;
};

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_THREAD_POOL_H_
