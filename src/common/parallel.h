// Fixed-size thread pool and deterministic parallel-for.
//
// The bench sweeps (Table 1, the ablations), `mempart table1` and the
// batched solver are embarrassingly parallel: independent work items whose
// RESULTS must come back in a caller-defined order so the emitted tables
// and JSON stay byte-identical regardless of thread count. ThreadPool
// provides that contract: parallel_for(n, fn) runs fn(0..n-1) across the
// workers plus the calling thread, each result lands in its own index
// slot, and ordering nondeterminism is confined to side effects the
// callers avoid. Work is handed out through a single atomic cursor, so
// uneven items (one pattern's LTB search dwarfing another's) self-balance.
//
// The pool is deliberately minimal: no futures, no task graph, one batch
// job at a time. Nested parallel_for on the same pool is not supported
// (the caller participates in its own job and would deadlock waiting for
// itself); compose parallelism by sharding at the outermost level.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"

namespace mempart {

/// Threads used when a caller passes 0: the MEMPART_THREADS environment
/// variable when set to a positive integer, else the hardware concurrency
/// (minimum 1).
[[nodiscard]] Count default_thread_count();

/// A fixed set of worker threads executing one parallel_for batch at a time.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread is the last executor);
  /// 0 means default_thread_count(). A pool of size 1 runs everything inline.
  explicit ThreadPool(Count threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executing threads during parallel_for (workers + caller).
  [[nodiscard]] Count size() const {
    return static_cast<Count>(workers_.size()) + 1;
  }

  /// Runs fn(i) for every i in [0, n) across the pool, blocking until all
  /// complete. Indices are handed out dynamically; result determinism comes
  /// from writing outputs by index, which map_chunked() below does. If any fn
  /// throws, the first exception is rethrown here after the batch drains
  /// (remaining indices are skipped).
  void parallel_for(Count n, const std::function<void(Count)>& fn);

  /// Chunked parallel_for: runs fn(begin, end) over contiguous ranges
  /// covering [0, n). Ranges hold at least `min_grain` indices (except
  /// possibly when n < min_grain) and at most 4 chunks per executor are
  /// formed, so per-item dispatch overhead amortises over the grain and a
  /// sweep whose total work is tiny stays on the calling thread entirely
  /// (n <= min_grain means one chunk, run inline with no pool round-trip).
  /// Per-chunk setup (scratch buffers, RNG, caches) goes at the top of fn.
  void parallel_for_chunked(Count n, Count min_grain,
                            const std::function<void(Count, Count)>& fn);

  /// Chunked map: fn(i) into slot i, scheduled chunk-wise as above —
  /// deterministic output order regardless of thread count or scheduling.
  template <typename T, typename Fn>
  std::vector<T> map_chunked(Count n, Count min_grain, Fn&& fn) {
    std::vector<T> out(static_cast<size_t>(n));
    parallel_for_chunked(n, min_grain, [&](Count begin, Count end) {
      for (Count i = begin; i < end; ++i) out[static_cast<size_t>(i)] = fn(i);
    });
    return out;
  }

 private:
  void worker_loop();
  /// Drains the shared index cursor, running fn on each claimed index.
  /// `n` is the batch size the caller read from job_n_ under mutex_ (the
  /// cursor itself is atomic, so the drain runs unlocked).
  void run_indices(const std::function<void(Count)>& fn, Count n);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  /// condition_variable_any: waitable on the annotated UniqueLock (the
  /// analysis then sees the capability held across the whole wait loop).
  std::condition_variable_any start_cv_;
  std::condition_variable_any done_cv_;
  /// Current batch job; set by parallel_for, read by woken workers.
  const std::function<void(Count)>* job_ MEMPART_GUARDED_BY(mutex_) = nullptr;
  /// Bumped per batch to wake workers.
  std::uint64_t generation_ MEMPART_GUARDED_BY(mutex_) = 0;
  /// Workers still inside the current batch.
  Count active_ MEMPART_GUARDED_BY(mutex_) = 0;
  std::atomic<Count> next_{0};  ///< index cursor of the current batch
  Count job_n_ MEMPART_GUARDED_BY(mutex_) = 0;
  /// First exception of the batch.
  std::exception_ptr error_ MEMPART_GUARDED_BY(mutex_);
  bool stop_ MEMPART_GUARDED_BY(mutex_) = false;
};

}  // namespace mempart
