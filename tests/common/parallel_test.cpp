#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mempart {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(513);
  pool.parallel_for(static_cast<Count>(hits.size()), [&](Count i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndSingletonBatches) {
  ThreadPool pool(3);
  Count calls = 0;
  pool.parallel_for(0, [&](Count) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](Count) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](Count i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must survive a failed batch.
  std::atomic<Count> sum{0};
  pool.parallel_for(10, [&](Count i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolChunked, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const Count n : {0, 1, 7, 16, 17, 257}) {
    for (const Count min_grain : {1, 4, 16, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n) + 1);
      pool.parallel_for_chunked(n, min_grain, [&](Count begin, Count end) {
        EXPECT_LE(begin, end);
        for (Count i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (Count i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "n=" << n << " grain=" << min_grain;
      }
    }
  }
}

TEST(ThreadPoolChunked, SmallSweepStaysOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  // n <= min_grain means a single chunk, run inline with no pool dispatch.
  pool.parallel_for_chunked(8, 16, [&](Count begin, Count end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 8);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolChunked, ChunksRespectTheMinimumGrain) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<Count> sizes;
  pool.parallel_for_chunked(100, 8, [&](Count begin, Count end) {
    const std::lock_guard<std::mutex> lock(mutex);
    sizes.push_back(end - begin);
  });
  Count total = 0;
  for (const Count size : sizes) {
    EXPECT_GE(size, 8);
    total += size;
  }
  EXPECT_EQ(total, 100);
  // At most 4 chunks per executor.
  EXPECT_LE(static_cast<Count>(sizes.size()), 4 * pool.size());
}

TEST(ThreadPoolChunked, MapChunkedIsThreadCountInvariant) {
  const Count n = 301;
  const auto job = [](Count i) { return 3 * i + 1; };
  std::vector<Count> expected;
  for (Count i = 0; i < n; ++i) expected.push_back(job(i));
  for (const Count threads : {1, 2, 8}) {
    for (const Count min_grain : {1, 16, 500}) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.map_chunked<Count>(n, min_grain, job), expected)
          << threads << " threads, grain " << min_grain;
    }
  }
}

TEST(ThreadPoolChunked, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunked(64, 4,
                                         [&](Count begin, Count) {
                                           if (begin >= 32) {
                                             throw std::runtime_error("boom");
                                           }
                                         }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<Count> sum{0};
  pool.parallel_for_chunked(10, 1, [&](Count begin, Count end) {
    for (Count i = begin; i < end; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 45);
}

}  // namespace
}  // namespace mempart
