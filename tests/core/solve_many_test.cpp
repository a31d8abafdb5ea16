// Property tests of the batched solver and the canonical cache: random
// translations and dimension permutations of corpus patterns must solve to
// the same bank counts and delta_P through the cache as directly, with the
// brute-force oracle (src/check) confirming the delta_P claim on the
// mapped variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "common/errors.h"
#include "core/partitioner.h"
#include "pattern/canonical.h"
#include "pattern/pattern_library.h"
#include "support/solve_corpus.h"

namespace mempart {
namespace {

Pattern permuted(const Pattern& pattern, const std::vector<int>& perm) {
  std::vector<NdIndex> offsets = pattern.offsets();
  for (NdIndex& offset : offsets) {
    NdIndex reordered(offset.size());
    for (std::size_t d = 0; d < offset.size(); ++d) {
      reordered[d] = offset[static_cast<std::size_t>(perm[d])];
    }
    offset = std::move(reordered);
  }
  return Pattern(std::move(offsets));
}

NdIndex random_shift(std::mt19937& rng, int rank) {
  std::uniform_int_distribution<Coord> dist(-25, 25);
  NdIndex shift(static_cast<std::size_t>(rank));
  for (Coord& s : shift) s = dist(rng);
  return shift;
}

/// Random canonical-equal variants of `base`: a translation plus (half the
/// time) a dimension permutation.
std::vector<Pattern> random_variants(const Pattern& base, std::mt19937& rng,
                                     int count) {
  std::vector<Pattern> variants;
  std::vector<int> perm(static_cast<std::size_t>(base.rank()));
  for (int v = 0; v < count; ++v) {
    Pattern variant = base.translated(random_shift(rng, base.rank()));
    if (v % 2 == 1) {
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      variant = permuted(variant, perm);
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

TEST(SolveMany, RandomVariantsShareBankCountAndDeltaThroughTheCache) {
  // The equivalence the cache keys on: translations are always canonical-
  // equal; a dimension permutation is canonical-equal exactly when the
  // canonicalizer identifies the two forms (always for distinct extents —
  // tied extents on an asymmetric pattern, like Median's transpose, are a
  // genuinely different closed-form problem and legitimately solve apart).
  // Canonical-equal variants must come back identical through the cache,
  // and EVERY variant — equal or not — must match its own direct solve.
  std::mt19937 rng(2024);
  std::vector<Pattern> corpus = patterns::table1_patterns();
  corpus.push_back(patterns::box2d(4));
  corpus.push_back(patterns::cross2d(3));
  corpus.push_back(patterns::atrous2d(3, 2));
  SolveCache cache(256);
  Partitioner cached(&cache);
  Count equivalent_variants = 0;
  for (const Pattern& base : corpus) {
    PartitionRequest request;
    request.pattern = base;
    const PartitionSolution expected = Partitioner::solve(request);
    for (const Pattern& variant : random_variants(base, rng, 6)) {
      PartitionRequest var_request;
      var_request.pattern = variant;
      const PartitionSolution got = cached.solve_cached(var_request);
      const PartitionSolution direct = Partitioner::solve(var_request);
      EXPECT_EQ(got.num_banks(), direct.num_banks()) << base.name();
      EXPECT_EQ(got.delta_ii(), direct.delta_ii()) << base.name();
      EXPECT_EQ(got.transform.alpha(), direct.transform.alpha())
          << base.name();
      EXPECT_EQ(got.pattern_banks, direct.pattern_banks) << base.name();
      if (!canonically_equal(base, variant)) continue;
      ++equivalent_variants;
      EXPECT_EQ(got.num_banks(), expected.num_banks()) << base.name();
      EXPECT_EQ(got.delta_ii(), expected.delta_ii()) << base.name();
      // Same multiset of per-offset banks: the variant relabels offsets.
      std::vector<Count> a = got.pattern_banks;
      std::vector<Count> b = expected.pattern_banks;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << base.name();
    }
  }
  // The translations alone guarantee most variants are equivalent, and each
  // equivalence class occupies one cache entry.
  EXPECT_GE(equivalent_variants, static_cast<Count>(3 * corpus.size()));
  const SolveCache::Stats stats = cache.stats();
  EXPECT_GE(stats.hits, equivalent_variants - static_cast<Count>(corpus.size()));
}

TEST(SolveMany, OracleConfirmsDeltaOnMappedVariants) {
  std::mt19937 rng(7);
  const std::vector<Pattern> corpus = {patterns::prewitt3x3(),
                                       patterns::structure_element(),
                                       patterns::roberts2x2()};
  SolveCache cache(64);
  Partitioner cached(&cache);
  const std::vector<Count> extents = {12, 10};
  for (const Pattern& base : corpus) {
    for (Pattern& variant : random_variants(base, rng, 4)) {
      variant = variant.normalized();
      PartitionRequest request;
      request.pattern = variant;
      request.array_shape = NdShape({extents[0] + variant.extent(0),
                                     extents[1] + variant.extent(1)});
      const PartitionSolution sol = cached.solve_cached(request);
      ASSERT_TRUE(sol.mapping.has_value());
      std::vector<std::vector<Coord>> offsets;
      for (const NdIndex& offset : variant.offsets()) {
        offsets.emplace_back(offset.begin(), offset.end());
      }
      const check::ConflictReport report = check::enumerate_conflicts(
          offsets, extents,
          [&](const std::vector<Coord>& x) { return sol.mapping->bank_of(x); });
      EXPECT_EQ(report.delta_p, sol.delta_ii()) << base.name();
    }
  }
}

TEST(SolveMany, ResultsComeBackInInputOrderAtEveryThreadCount) {
  std::mt19937 rng(99);
  std::vector<PartitionRequest> batch;
  for (const PartitionRequest& base : testsupport::solver_corpus()) {
    for (const Pattern& variant : random_variants(*base.pattern, rng, 3)) {
      PartitionRequest request = base;
      request.pattern = variant;
      batch.push_back(std::move(request));
    }
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  SolveCache cache(1024);
  Partitioner cached(&cache);
  BatchOptions base_options;
  base_options.threads = 1;
  const std::vector<PartitionSolution> expected =
      cached.solve_many(batch, base_options);
  ASSERT_EQ(expected.size(), batch.size());
  for (const Count threads : {2, 4}) {
    for (const Count min_grain : {1, 4, 64}) {
      cache.clear();
      BatchOptions options;
      options.threads = threads;
      options.min_grain = min_grain;
      const std::vector<PartitionSolution> got =
          cached.solve_many(batch, options);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        testsupport::expect_same_solution(
            got[i], expected[i],
            "request " + std::to_string(i) + " (" +
                testsupport::describe(batch[i]) + ") at " +
                std::to_string(threads) + " threads, grain " +
                std::to_string(min_grain));
      }
    }
  }
}

TEST(SolveMany, DedupSolvesEachClassOnce) {
  SolveCache cache(64);
  Partitioner cached(&cache);
  std::vector<PartitionRequest> batch;
  for (Coord shift = 0; shift < 10; ++shift) {
    PartitionRequest request;
    request.pattern = patterns::log5x5().translated({shift, -shift});
    batch.push_back(std::move(request));
  }
  const std::vector<PartitionSolution> solutions = cached.solve_many(batch);
  ASSERT_EQ(solutions.size(), batch.size());
  for (const PartitionSolution& sol : solutions) {
    EXPECT_EQ(sol.num_banks(), solutions.front().num_banks());
  }
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);  // one canonical class -> one real solve
  EXPECT_EQ(stats.entries, 1);
}

TEST(SolveMany, CollectFlagsCacheHitsAsOfBatchStart) {
  SolveCache cache(64);
  Partitioner cached(&cache);
  std::vector<PartitionRequest> batch;
  for (Coord shift = 0; shift < 4; ++shift) {
    PartitionRequest request;
    request.pattern = patterns::log5x5().translated({shift, -shift});
    batch.push_back(std::move(request));
  }
  // Cold batch: the class wasn't cached when the batch started, so every
  // request — the one real solve AND its canonical duplicates — is a miss.
  for (const BatchResult& result : cached.solve_many_collect(batch)) {
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result.cache_hit);
  }
  // Warm batch: the entry now pre-exists, so every request is a hit.
  for (const BatchResult& result : cached.solve_many_collect(batch)) {
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.cache_hit);
  }
  // Without a cache there is nothing to hit.
  Partitioner uncached(nullptr);
  for (const BatchResult& result : uncached.solve_many_collect(batch)) {
    EXPECT_FALSE(result.cache_hit);
  }
}

/// A shaped 2-D or 3-D request with a random pattern, array, cap, strategy
/// and tail. Patterns with a longer leading extent canonicalize with a
/// permutation, and a permuted alpha often fails the mapping's innermost
/// remap precondition, so a stream of these mixes identity-order retries
/// among ordinary requests.
PartitionRequest random_shaped_request(std::mt19937& rng) {
  const int rank = rng() % 3 == 0 ? 3 : 2;
  std::uniform_int_distribution<Coord> box_extent(1, 6);
  NdIndex box(static_cast<std::size_t>(rank));
  for (Coord& e : box) e = box_extent(rng);
  std::vector<NdIndex> offsets;
  const int taps = 2 + static_cast<int>(rng() % 9);
  for (int t = 0; t < 4 * taps && static_cast<int>(offsets.size()) < taps;
       ++t) {
    NdIndex offset(box.size());
    for (std::size_t d = 0; d < box.size(); ++d) {
      offset[d] = static_cast<Coord>(rng() % static_cast<unsigned>(box[d]));
    }
    if (std::find(offsets.begin(), offsets.end(), offset) == offsets.end()) {
      offsets.push_back(std::move(offset));
    }
  }
  if (offsets.size() < 2) offsets = {NdIndex(box.size(), 0), box};
  std::vector<Count> shape;
  for (const Coord e : box) {
    shape.push_back(e + 2 + static_cast<Count>(rng() % 30));
  }
  PartitionRequest request;
  request.pattern = Pattern(std::move(offsets));
  request.array_shape = NdShape(std::move(shape));
  request.max_banks = rng() % 2 == 0 ? 0 : 2 + static_cast<Count>(rng() % 7);
  request.strategy = rng() % 2 == 0 ? ConstraintStrategy::kFastFold
                                    : ConstraintStrategy::kSameSize;
  request.tail = rng() % 3 == 0 ? TailPolicy::kCompact : TailPolicy::kPadded;
  return request;
}

/// Random shaped requests plus translated duplicates (some on another
/// array), shuffled.
std::vector<PartitionRequest> mixed_shaped_batch(std::uint32_t seed,
                                                 int distinct) {
  std::mt19937 rng(seed);
  std::vector<PartitionRequest> batch;
  for (int k = 0; k < distinct; ++k) {
    PartitionRequest request = random_shaped_request(rng);
    PartitionRequest twin = request;
    twin.pattern =
        request.pattern->translated(random_shift(rng, request.pattern->rank()));
    if (rng() % 2 == 0) {
      twin.array_shape = random_shaped_request(rng).array_shape;
    }
    if (twin.array_shape->rank() != request.pattern->rank()) {
      twin.array_shape = request.array_shape;
    }
    batch.push_back(std::move(request));
    batch.push_back(std::move(twin));
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  return batch;
}

/// Expects `got` to answer `request` exactly as a direct solve does: the
/// same solution, or the same error.
void expect_matches_direct(const BatchResult& got,
                           const PartitionRequest& request,
                           const std::string& where, bool same_ops) {
  try {
    const PartitionSolution direct = Partitioner::solve(request);
    ASSERT_TRUE(got.ok()) << where << ": " << got.error;
    testsupport::expect_same_solution(*got.solution, direct, where);
    EXPECT_EQ(got.solution->mapping.has_value(), direct.mapping.has_value())
        << where;
    if (direct.mapping.has_value()) {
      EXPECT_EQ(got.solution->storage_overhead_elements(),
                direct.storage_overhead_elements())
          << where;
    }
    if (same_ops) {
      EXPECT_EQ(got.solution->ops, direct.ops) << where;
    }
  } catch (const Error& error) {
    EXPECT_FALSE(got.ok()) << where;
    EXPECT_EQ(got.error, error.what()) << where;
  }
}

TEST(SolveMany, IdentityOrderRetriesMatchDirectSolves) {
  const std::vector<PartitionRequest> batch = mixed_shaped_batch(31, 120);
  Count retries = 0;
  for (const PartitionRequest& request : batch) {
    try {
      const PartitionSolution direct = Partitioner::solve(request);
      retries +=
          direct.transform.alpha() != canonicalize(*request.pattern).alpha;
    } catch (const Error&) {
    }
  }
  // The stream really exercises the identity-order round.
  EXPECT_GE(retries, static_cast<Count>(batch.size() / 10));
  for (const bool cached : {true, false}) {
    for (const Count threads : {1, 4}) {
      SolveCache cache(4096);
      Partitioner partitioner(cached ? &cache : nullptr);
      BatchOptions options;
      options.threads = threads;
      options.min_grain = 4;
      const std::vector<BatchResult> results =
          partitioner.solve_many_collect(batch, options);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string where = "request " + std::to_string(i) +
                                  (cached ? " cached" : " uncached") + " at " +
                                  std::to_string(threads) + " threads";
        expect_matches_direct(results[i], batch[i], where,
                              /*same_ops=*/!cached);
      }
    }
  }
}

TEST(SolveMany, AnswersDoNotDependOnTheCacheKeepingEntries) {
  // 64 classes through a one-entry cache: every class but the last is
  // evicted before the batch rehydrates it.
  std::mt19937 rng(64);
  std::vector<PartitionRequest> batch;
  while (batch.size() < 64) {
    PartitionRequest request = random_shaped_request(rng);
    request.max_banks = static_cast<Count>(batch.size() % 8);
    batch.push_back(std::move(request));
  }
  SolveCache tiny(1);
  Partitioner partitioner(&tiny);
  const std::vector<BatchResult> results =
      partitioner.solve_many_collect(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_matches_direct(results[i], batch[i], "request " + std::to_string(i),
                          /*same_ops=*/false);
  }
  // Each class was still solved once: as many solves as a roomy cache.
  SolveCache roomy(4096);
  Partitioner reference(&roomy);
  (void)reference.solve_many_collect(batch);
  EXPECT_GE(roomy.stats().misses, 64);
  EXPECT_EQ(tiny.stats().misses, roomy.stats().misses);
  EXPECT_EQ(tiny.stats().entries, 1);
}

TEST(SolveMany, UncachedBatchReportsFullSolveOps) {
  std::vector<PartitionRequest> batch;
  for (Coord shift = 0; shift < 10; ++shift) {
    PartitionRequest request;
    request.pattern = patterns::log5x5().translated({shift, 2 * shift});
    request.array_shape = NdShape({64, 48});
    batch.push_back(std::move(request));
  }
  Partitioner uncached(nullptr);
  const std::vector<BatchResult> results = uncached.solve_many_collect(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].solution->ops, Partitioner::solve(batch[i]).ops)
        << "request " << i;
  }
}

TEST(SolveMany, ConcurrentBatchesSolveAColdClassOnce) {
  // Two callers, each with its own Partitioner on one shared cache, batch
  // the same cold class at the same moment: the single-flight fill lets
  // exactly one of them solve it.
  std::vector<PartitionRequest> batch(1);
  batch[0].pattern = patterns::cross2d(96);
  SolveCache cache(64);
  BatchOptions options;
  options.threads = 1;
  for (int round = 0; round < 200; ++round) {
    cache.clear();
    std::atomic<int> arrived{0};
    const auto caller = [&] {
      Partitioner partitioner(&cache);
      arrived.fetch_add(1);
      while (arrived.load() < 2) {
      }
      const std::vector<BatchResult> results =
          partitioner.solve_many_collect(batch, options);
      EXPECT_TRUE(results[0].ok());
    };
    std::thread other(caller);
    caller();
    other.join();
    ASSERT_EQ(cache.stats().misses, 1) << "round " << round;
  }
}

TEST(SolveMany, CollectReportsPerRequestErrors) {
  std::vector<PartitionRequest> batch(3);
  batch[0].pattern = patterns::prewitt3x3();
  batch[1].pattern = patterns::prewitt3x3();
  batch[1].array_shape = NdShape({8});  // rank mismatch
  batch[2].pattern = patterns::row1d(4);
  Partitioner cached;
  const std::vector<BatchResult> results = cached.solve_many_collect(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].ok());
}

TEST(SolveMany, ThrowingVariantNamesTheFirstBadRequest) {
  std::vector<PartitionRequest> batch(2);
  batch[0].pattern = patterns::prewitt3x3();
  // batch[1] has no pattern at all.
  Partitioner cached;
  try {
    (void)cached.solve_many(batch);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("request 1"), std::string::npos);
  }
}

TEST(SolveMany, EmptyBatchIsFine) {
  Partitioner cached;
  EXPECT_TRUE(cached.solve_many({}).empty());
  EXPECT_TRUE(cached.solve_many_collect({}).empty());
}

}  // namespace
}  // namespace mempart
