#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace sheriff::common {

namespace {
/// The pool whose worker_loop owns the calling thread (nullptr on any
/// thread that is not a pool worker). One marker suffices even with many
/// pools alive: a thread belongs to at most one pool.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() const noexcept { return t_worker_pool == this; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Reentrancy guard: a nested parallel_for on the pool the caller already
  // works for would enqueue tasks that can only run once the caller (and
  // every sibling blocked the same way) returns — a deadlock at full
  // occupancy. Run inline instead: "size 1, this thread" is what a pool
  // of one would do.
  if (pool.on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunk to at most 4 tasks per worker to bound scheduling overhead.
  const std::size_t chunks = std::min(n, pool.size() * 4);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sheriff::common
