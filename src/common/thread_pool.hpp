#pragma once
// Work-queue thread pool plus a parallel_for helper.
//
// The fleet runner (src/fleet/) executes independent engine runs on this
// pool, and the benches use parallel_for to sweep topology sizes. The
// engine itself runs every round on the calling thread (DESIGN.md §11).
//
// Reentrancy (DESIGN.md §12): a parallel_for issued *from a worker thread
// of the same pool* runs its iterations inline on that worker instead of
// enqueueing. Without the guard, a nested sweep — a fleet run that itself
// calls parallel_for on the fleet's pool — deadlocks as soon as every
// worker blocks on futures only the (fully occupied) pool could drain.
// Inline execution is the deterministic degradation: iteration order
// becomes 0..n-1 serially, indistinguishable from a pool of size one.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sheriff::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True iff the calling thread is one of this pool's workers. The
  /// parallel_for reentrancy guard keys off this to run nested sweeps
  /// inline rather than deadlocking on a saturated queue.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Enqueues a task; the future resolves when it finishes (exceptions
  /// propagate through the future).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      std::scoped_lock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n) across the pool, blocking until all complete.
/// Exceptions from any iteration are rethrown (first one wins).
///
/// Reentrancy guard: when called from one of `pool`'s own worker threads,
/// the iterations run inline (serially, in index order) on the caller —
/// never enqueued — so nested parallelism over one pool cannot deadlock.
void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace sheriff::common
