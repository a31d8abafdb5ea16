// Property tests of the batched solver and the canonical cache: random
// translations and dimension permutations of corpus patterns must solve to
// the same bank counts and delta_P through the cache as directly, with the
// brute-force oracle (src/check) confirming the delta_P claim on the
// mapped variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
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
