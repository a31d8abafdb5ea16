#include "core/solve_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/errors.h"
#include "core/partitioner.h"
#include "pattern/pattern_library.h"
#include "support/alloc_counter.h"
#include "support/solve_corpus.h"

namespace mempart {
namespace {

std::vector<std::int64_t> key_of(std::int64_t tag) {
  return {tag, tag + 1, tag + 2};
}

std::shared_ptr<const CachedSolve> dummy_value(Count banks) {
  auto value = std::make_shared<CachedSolve>();
  value->search.num_banks = banks;
  value->constraint.num_banks = banks;
  return value;
}

TEST(SolveCache, MissThenHit) {
  SolveCache cache(4, /*shards=*/1);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(1), dummy_value(5));
  const auto hit = cache.find(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->search.num_banks, 5);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(SolveCache, EvictsLeastRecentlyUsed) {
  SolveCache cache(2, /*shards=*/1);
  cache.insert(key_of(1), dummy_value(1));
  cache.insert(key_of(2), dummy_value(2));
  // Touch key 1 so key 2 becomes the eviction victim.
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(3), dummy_value(3));
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(SolveCache, HitKeepsTheValueAliveAcrossEviction) {
  SolveCache cache(1, /*shards=*/1);
  cache.insert(key_of(1), dummy_value(7));
  const auto held = cache.find(key_of(1));
  cache.insert(key_of(2), dummy_value(8));  // evicts key 1
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->search.num_banks, 7);  // shared_ptr keeps it valid
}

TEST(SolveCache, ContainsPeeksWithoutCountingOrPromoting) {
  SolveCache cache(2, /*shards=*/1);
  EXPECT_FALSE(cache.contains(key_of(1)));
  cache.insert(key_of(1), dummy_value(1));
  cache.insert(key_of(2), dummy_value(2));
  EXPECT_TRUE(cache.contains(key_of(1)));
  // The peek neither registered a hit/miss nor refreshed recency: key 1 is
  // still the LRU victim when key 3 arrives.
  cache.insert(key_of(3), dummy_value(3));
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_TRUE(cache.contains(key_of(2)));
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(SolveCache, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SolveCache(16, 3).shard_count(), 4);
  EXPECT_EQ(SolveCache(16, 4).shard_count(), 4);
  // Shards never exceed capacity.
  EXPECT_EQ(SolveCache(2, 16).shard_count(), 2);
}

TEST(SolveCache, ClearDropsEntriesAndCounters) {
  SolveCache cache(4, /*shards=*/2);
  cache.insert(key_of(1), dummy_value(1));
  (void)cache.find(key_of(1));
  cache.clear();
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
}

TEST(SolveCache, HashKeyIsDeterministicAndKeySensitive) {
  EXPECT_EQ(SolveCache::hash_key(key_of(9)), SolveCache::hash_key(key_of(9)));
  EXPECT_NE(SolveCache::hash_key(key_of(9)), SolveCache::hash_key(key_of(10)));
}

TEST(SolveCache, CachedSolveMatchesDirectSolve) {
  const std::vector<PartitionRequest> corpus = testsupport::solver_corpus();
  SolveCache cache(256);
  Partitioner cached(&cache);
  for (const PartitionRequest& request : corpus) {
    const std::string where = testsupport::describe(request);
    const PartitionSolution direct = Partitioner::solve(request);
    const PartitionSolution miss = cached.solve_cached(request);
    const PartitionSolution hit = cached.solve_cached(request);
    testsupport::expect_same_solution(miss, direct, where + " (miss)");
    testsupport::expect_same_solution(hit, direct, where + " (hit)");
    // A hit skips Algorithm 1, so it honestly reports fewer ops.
    EXPECT_LT(hit.ops.arithmetic(), direct.ops.arithmetic()) << where;
  }
  EXPECT_GE(cache.stats().hits, static_cast<std::int64_t>(corpus.size()));
}

TEST(SolveCache, WarmShapelessSolveIntoAllocatesNothing) {
  SolveCache cache(64);
  Partitioner cached(&cache);
  PartitionRequest request;
  request.pattern = patterns::log5x5();
  PartitionSolution out;
  cached.solve_into(request, out);  // miss: populates cache and capacities
  cached.solve_into(request, out);  // warm once more for good measure
  const long before = testsupport::allocation_count();
  for (int i = 0; i < 100; ++i) cached.solve_into(request, out);
  const long after = testsupport::allocation_count();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(out.num_banks(), 13);
}

TEST(SolveCache, GlobalCacheIsSharedByDefaultPartitioners) {
  Partitioner a;
  Partitioner b;
  EXPECT_EQ(a.cache(), &SolveCache::global());
  EXPECT_EQ(a.cache(), b.cache());
}

TEST(SolveCache, ReconfigureResizesAndDropsEntriesButKeepsCounters) {
  SolveCache cache(4, /*shards=*/1);
  cache.insert(key_of(1), dummy_value(1));
  (void)cache.find(key_of(1));
  (void)cache.find(key_of(2));  // miss
  cache.reconfigure(128, 2);
  EXPECT_EQ(cache.capacity(), 128);
  EXPECT_EQ(cache.shard_count(), 2);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);  // drain-and-resize drops residents
  EXPECT_EQ(stats.hits, 1);     // history carries over
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(1), dummy_value(2));
  EXPECT_NE(cache.find(key_of(1)), nullptr);
}

TEST(SolveCache, ReconfigureRejectsABadSizeWithoutDisturbingTheTable) {
  SolveCache cache(16, 4);
  cache.insert(key_of(1), dummy_value(9));
  EXPECT_THROW(cache.reconfigure(0), InvalidArgument);
  // The failed swap left the live table (and its entries) intact.
  EXPECT_EQ(cache.capacity(), 16);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  // Shards are clamped to capacity on a legal reconfigure.
  cache.reconfigure(2, 16);
  EXPECT_EQ(cache.shard_count(), 2);
}

// TSan coverage: readers and writers keep hammering the cache while the
// main thread swaps the shard table underneath them. In-flight operations
// must complete against whichever table they loaded — no crash, no race,
// and every find() that returns non-null returns an intact value.
TEST(SolveCache, ReconfigureRacesFindAndInsert) {
  SolveCache cache(64, 4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cache, &stop, t] {
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t tag = t * 1000 + (i % 97);
        cache.insert(key_of(tag), dummy_value(static_cast<Count>(t + 1)));
        const auto hit = cache.find(key_of(tag));
        if (hit != nullptr) {
          EXPECT_EQ(hit->search.num_banks, static_cast<Count>(t + 1));
        }
        ++i;
      }
    });
  }
  // Make sure the workers are actually running before the swaps start —
  // on a single-core box they may not be scheduled yet.
  while (cache.stats().insertions < 3) std::this_thread::yield();
  for (int round = 0; round < 50; ++round) {
    cache.reconfigure(32 + round % 3 * 32, 1 + round % 4);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  // Counters survived every swap: the pre-swap insertions are still there.
  const SolveCache::Stats stats = cache.stats();
  EXPECT_GE(stats.insertions, 3);
  EXPECT_EQ(cache.shard_count(), 2);  // last round: shards = 1 + 49 % 4
}

}  // namespace
}  // namespace mempart
