#include "common/parallel.h"

#include <algorithm>

#include "common/env.h"
#include "common/errors.h"

namespace mempart {
namespace {

/// 0 = unset; anything set must be a valid positive thread count (garbage
/// or out-of-range values throw instead of silently running single-threaded).
Count env_thread_count() {
  return env_count("MEMPART_THREADS", 0, 1, kMaxEnvThreads);
}

}  // namespace

Count default_thread_count() {
  const Count env = env_thread_count();
  if (env > 0) return env;
  return std::max<Count>(1, static_cast<Count>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(Count threads) {
  const Count resolved = threads == 0 ? default_thread_count() : threads;
  MEMPART_REQUIRE(resolved >= 1, "ThreadPool: thread count must be >= 1");
  workers_.reserve(static_cast<size_t>(resolved - 1));
  for (Count i = 1; i < resolved; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_indices(const std::function<void(Count)>& fn, Count n) {
  for (;;) {
    const Count i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
      // Skip the remaining indices: drain the batch without more work.
      next_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  UniqueLock lock(mutex_);
  for (;;) {
    // Explicit wait loop (not the predicate overload): the predicate lambda
    // would read guarded members from a context the thread-safety analysis
    // treats as unlocked; this form keeps every guarded read visibly under
    // the capability.
    while (!stop_ && generation_ == seen) start_cv_.wait(lock);
    if (stop_) return;
    seen = generation_;
    const std::function<void(Count)>* fn = job_;
    const Count n = job_n_;
    lock.unlock();
    run_indices(*fn, n);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(Count n, const std::function<void(Count)>& fn) {
  MEMPART_REQUIRE(n >= 0, "ThreadPool::parallel_for: n must be >= 0");
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (Count i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<Count>(workers_.size());
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  run_indices(fn, n);
  UniqueLock lock(mutex_);
  while (active_ != 0) done_cv_.wait(lock);
  if (error_) std::rethrow_exception(error_);
}

void ThreadPool::parallel_for_chunked(
    Count n, Count min_grain, const std::function<void(Count, Count)>& fn) {
  MEMPART_REQUIRE(n >= 0, "ThreadPool::parallel_for_chunked: n must be >= 0");
  MEMPART_REQUIRE(min_grain >= 1,
                  "ThreadPool::parallel_for_chunked: min_grain must be >= 1");
  if (n == 0) return;
  // Enough chunks for the atomic cursor to self-balance uneven items (4 per
  // executor), but never chunks smaller than the grain — hence the floor
  // division: n/min_grain chunks of at least min_grain each (the remainder
  // spreads over them), or one inline chunk when n < min_grain.
  const Count by_grain = std::max<Count>(1, n / min_grain);
  const Count chunks = std::min(size() * 4, by_grain);
  if (workers_.empty() || chunks <= 1) {
    fn(0, n);
    return;
  }
  const Count base = n / chunks;
  const Count extra = n % chunks;
  parallel_for(chunks, [&](Count c) {
    const Count begin = c * base + std::min(c, extra);
    const Count end = begin + base + (c < extra ? 1 : 0);
    fn(begin, end);
  });
}

}  // namespace mempart
