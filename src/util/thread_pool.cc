#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace fedmigr::util {

namespace {
// Set for the lifetime of WorkerLoop; lets nested parallel calls detect
// that they are already running on a pool thread and must not block on a
// pool (same pool: deadlock; other pool: oversubscription).
thread_local bool t_in_pool_worker = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  FEDMIGR_CHECK_GT(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
  if (pending_error_ != nullptr) {
    // Destructors must not throw; surface the dropped error in the log.
    try {
      std::rethrow_exception(pending_error_);
    } catch (const std::exception& e) {
      FEDMIGR_LOG(kError) << "thread pool destroyed with unobserved task "
                          << "exception: " << e.what();
    } catch (...) {
      FEDMIGR_LOG(kError) << "thread pool destroyed with unobserved task "
                          << "exception";
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FEDMIGR_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (pending_error_ != nullptr) {
    // Take sole ownership under the lock (see WorkerLoop): from here on
    // the exception object lives and dies on this thread.
    std::exception_ptr error = std::move(pending_error_);
    pending_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (InWorkerThread()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Static chunking: one task per worker keeps queue overhead negligible
  // even for fine-grained bodies.
  const int chunks = std::min(n, num_threads());
  std::atomic<int> next{0};
  for (int c = 0; c < chunks; ++c) {
    Submit([&next, n, &fn] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // Keep the worker alive; the error is rethrown from Wait().
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && pending_error_ == nullptr) {
        // Transfer (not share) the reference: after the move this thread
        // holds nothing, so every later touch of the exception object —
        // rethrow, what(), final release — happens on the thread that
        // takes it out of pending_error_, with the mutex ordering the
        // handoff. Sharing the exception_ptr would release the refcount
        // from two threads and free the object on whichever lost the
        // race.
        pending_error_ = std::move(error);
      }
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
    // A dropped secondary exception (pending_error_ was already set) is
    // destroyed here; it never escaped this thread.
  }
}

}  // namespace fedmigr::util
