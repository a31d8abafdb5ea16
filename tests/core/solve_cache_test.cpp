#include "core/solve_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(SolveCache, FindOrSolveSolvesAColdKeyOnce) {
  SolveCache cache(4, /*shards=*/1);
  int solves = 0;
  const auto solve = [&] {
    ++solves;
    return dummy_value(6);
  };
  bool hit = true;
  const auto cold = cache.find_or_solve(key_of(1), solve, &hit);
  EXPECT_FALSE(hit);
  const auto warm = cache.find_or_solve(key_of(1), solve, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(solves, 1);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(warm->search.num_banks, 6);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
}

// The claimant's solve throws while another caller waits on the same key:
// the claim is released, the waiter solves the key itself and fills it,
// and the exception reaches only the claimant.
TEST(SolveCache, FindOrSolveWaiterTakesOverWhenTheSolveThrows) {
  SolveCache cache(4, /*shards=*/1);
  std::atomic<bool> claimed{false};
  std::atomic<bool> waiter_started{false};
  std::thread claimant([&] {
    const auto failing_solve = [&]() -> std::shared_ptr<const CachedSolve> {
      claimed.store(true);
      while (!waiter_started.load()) std::this_thread::yield();
      // Let the waiter reach the wait before the solve fails.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw InvalidArgument("solve failed");
    };
    EXPECT_THROW((void)cache.find_or_solve(key_of(1), failing_solve),
                 InvalidArgument);
  });
  while (!claimed.load()) std::this_thread::yield();
  int waiter_solves = 0;
  bool hit = true;
  waiter_started.store(true);
  const auto value = cache.find_or_solve(
      key_of(1),
      [&] {
        ++waiter_solves;
        return dummy_value(4);
      },
      &hit);
  claimant.join();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->search.num_banks, 4);
  EXPECT_EQ(waiter_solves, 1);
  EXPECT_FALSE(hit);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // two solves ran: the failed one and the fill
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
}

// Callers that arrive while a key is being solved wait for that one solve,
// and each counts as a hit.
TEST(SolveCache, FindOrSolveWaitersShareOneSolve) {
  SolveCache cache(4, /*shards=*/1);
  std::atomic<int> solves{0};
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  constexpr int kCallers = 4;
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      started.fetch_add(1);
      const auto value = cache.find_or_solve(key_of(1), [&] {
        solves.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
        return dummy_value(3);
      });
      EXPECT_EQ(value->search.num_banks, 3);
    });
  }
  while (started.load() < kCallers || solves.load() == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(solves.load(), 1);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kCallers - 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(SolveCache, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SolveCache(16, 3).shard_count(), 4);
  EXPECT_EQ(SolveCache(16, 4).shard_count(), 4);
  // Shards never exceed capacity.
  EXPECT_EQ(SolveCache(2, 16).shard_count(), 2);
}

TEST(SolveCache, RejectsABadSize) {
  EXPECT_THROW(SolveCache(0), InvalidArgument);
  EXPECT_THROW(SolveCache(16, -1), InvalidArgument);
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

}  // namespace
}  // namespace mempart
