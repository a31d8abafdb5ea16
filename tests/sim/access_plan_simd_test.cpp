// SIMD/SoA bit-identity properties. Under every supported dispatch tier the
// block walk must reproduce the AddressMap oracle exactly (same banks, same
// offsets) and issue_batch_soa must reproduce per-group issue() (same cycle
// statistics) — across all compiled plan kinds and the lane-remainder edge
// cases (rows shorter than one vector, tails, non-unit inner steps).
#include <gtest/gtest.h>

#include <vector>

#include "baseline/ltb.h"
#include "baseline/ltb_mapping.h"
#include "common/errors.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/partitioner.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_program.h"
#include "obs/trace.h"
#include "pattern/pattern_library.h"
#include "sim/access_engine.h"
#include "sim/access_plan.h"
#include "support/plan_oracle.h"

namespace mempart::sim {
namespace {

CoreAddressMap solve_map(const Pattern& pattern, NdShape shape,
                         Count max_banks = 0,
                         TailPolicy tail = TailPolicy::kPadded) {
  PartitionRequest req;
  req.pattern = pattern;
  req.array_shape = std::move(shape);
  req.max_banks = max_banks;
  req.tail = tail;
  PartitionSolution sol = Partitioner::solve(req);
  return CoreAddressMap(std::move(*sol.mapping));
}

/// Builds the plan of `program` over `map`, asserts it compiled, and checks
/// it against the oracle under every supported tier.
void expect_program_matches_oracle(const loopnest::StencilProgram& program,
                                   const Pattern& pattern,
                                   const AddressMap& map) {
  const auto domain = loopnest::plan_domain(program.loop_nest());
  const AccessPlan plan(map, pattern, domain);
  ASSERT_TRUE(plan.compiled());
  testing::expect_block_walk_matches_oracle(plan, map, pattern, domain);
}

void expect_stats_equal(const AccessStats& a, const AccessStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.conflict_cycles, b.conflict_cycles);
  EXPECT_EQ(a.worst_group_cycles, b.worst_group_cycles);
  EXPECT_EQ(a.bank_load, b.bank_load);
}

TEST(AccessPlanSimd, DispatchLadderIsSane) {
  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  ASSERT_LE(tiers.size(), 2u);
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  for (const simd::Tier tier : tiers) {
    const simd::TierOverride guard(tier);
    EXPECT_EQ(simd::active_tier(), tier);
  }
  {
    // An avx2 request runs scalar on a CPU without AVX2.
    const simd::TierOverride guard(simd::Tier::kAvx2);
    EXPECT_EQ(simd::active_tier(), tiers.back());
  }
  EXPECT_EQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_EQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
}

TEST(AccessPlanSimd, BlockWalkMatchesOracleAcrossKindsAndTiers) {
  struct Config {
    Pattern pattern;
    NdShape shape;
    Count max_banks;
    TailPolicy tail;
  };
  // One config per compiled kind: padded mod-slice, compact tail, folded
  // lookup; flat and LTB maps follow below.
  const std::vector<Config> configs = {
      {patterns::log5x5(), NdShape({20, 22}), 0, TailPolicy::kPadded},
      {patterns::box2d(3), NdShape({15, 21}), 0, TailPolicy::kCompact},
      {patterns::log5x5(), NdShape({20, 26}), 10, TailPolicy::kPadded},
      {patterns::box3d(2), NdShape({7, 8, 11}), 0, TailPolicy::kPadded},
      {patterns::row1d(5), NdShape({43}), 0, TailPolicy::kCompact},
  };
  for (const Config& config : configs) {
    const CoreAddressMap map =
        solve_map(config.pattern, config.shape, config.max_banks, config.tail);
    const loopnest::StencilProgram program(config.shape, config.pattern, "p");
    expect_program_matches_oracle(program, config.pattern, map);
  }
}

TEST(AccessPlanSimd, BlockWalkMatchesOnFlatAndLtbMaps) {
  const Pattern pattern = patterns::box2d(3);
  const NdShape shape({17, 23});
  const loopnest::StencilProgram program(shape, pattern, "flat");
  expect_program_matches_oracle(program, pattern, FlatAddressMap(shape));
  expect_program_matches_oracle(
      program, pattern,
      LtbAddressMap(baseline::LtbMapping(shape, LinearTransform({5, 1}), 13)));
}

TEST(AccessPlanSimd, LaneRemainderEdgeCases) {
  // Rows shorter than the widest vector (1..kMaxLanes groups), plus a
  // couple past it so every remainder count 0..W-1 occurs for every tier.
  const Pattern pattern = patterns::box2d(2);
  for (Count extra = 0; extra <= simd::kMaxLanes + 1; ++extra) {
    const NdShape shape({pattern.extent(0) + 2,
                         pattern.extent(1) + extra});
    const loopnest::StencilProgram program(shape, pattern, "edge");
    expect_program_matches_oracle(program, pattern, solve_map(pattern, shape));
  }
}

TEST(AccessPlanSimd, NonUnitInnerStepMatches) {
  // Unrolling multiplies the inner step, so the per-lane stride tables use
  // a stride > 1; compact tails interact with the cut point too.
  const Pattern base = patterns::box2d(3);
  const NdShape shape({19, 26});
  for (const int factor : {2, 3}) {
    const loopnest::StencilProgram program =
        loopnest::StencilProgram(shape, base, "unroll").unrolled(1, factor);
    const Pattern& pattern = program.extract_pattern();
    expect_program_matches_oracle(program, pattern, solve_map(pattern, shape));
  }
}

TEST(AccessPlanSimd, BanksOnlyWalkMatchesFullWalk) {
  const Pattern pattern = patterns::log5x5();
  const NdShape shape({20, 22});
  const CoreAddressMap map = solve_map(pattern, shape);
  const loopnest::StencilProgram program(shape, pattern, "banks");
  const AccessPlan plan(map, pattern,
                        loopnest::plan_domain(program.loop_nest()));
  ASSERT_TRUE(plan.compiled());
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    std::vector<Count> full;
    plan.for_each_row_block(
        [&](const NdIndex&, const AccessPlan::RowBlock& block) {
          full.insert(full.end(), block.banks.begin(), block.banks.end());
        });
    std::vector<Count> banks_only;
    plan.for_each_row_block_banks(
        [&](const NdIndex&, const AccessPlan::RowBlock& block) {
          EXPECT_TRUE(block.offsets.empty());
          banks_only.insert(banks_only.end(), block.banks.begin(),
                            block.banks.end());
        });
    EXPECT_EQ(full, banks_only);
  }
}

TEST(AccessPlanSimd, SimulateFastStatsIdenticalAcrossTiers) {
  const Pattern pattern = patterns::log5x5();
  const NdShape shape({20, 26});
  const CoreAddressMap map = solve_map(pattern, shape, /*max_banks=*/10);
  const loopnest::StencilProgram program(shape, pattern, "stats");
  const AccessStats reference = loopnest::simulate(program, map);
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    expect_stats_equal(loopnest::simulate_fast(program, map), reference);
  }
}

// ---------------------------------------------------------------------------
// Engine: issue_batch_soa vs per-group issue()
// ---------------------------------------------------------------------------

/// Minimal N-bank map for engine tests: the engine only reads num_banks().
class StubMap final : public AddressMap {
 public:
  StubMap(NdShape shape, Count banks)
      : shape_(std::move(shape)), banks_(banks) {}
  [[nodiscard]] const NdShape& array_shape() const override { return shape_; }
  [[nodiscard]] Count num_banks() const override { return banks_; }
  [[nodiscard]] Count bank_of(const NdIndex& x) const override {
    return euclid_mod(x.back(), banks_);
  }
  [[nodiscard]] Address offset_of(const NdIndex& x) const override {
    return x.back() / banks_;
  }
  [[nodiscard]] Count bank_capacity(Count) const override {
    return shape_.volume();
  }

 private:
  NdShape shape_;
  Count banks_;
};

/// Issues the same random groups through per-group issue() (the oracle
/// path: StubMap resolves element {b} to bank b) and issue_batch_soa
/// (tap-major) and demands identical cycles and stats.
void expect_soa_matches_issue(Count num_banks, Count taps, Count groups,
                              Count ports, Rng& rng) {
  const StubMap map(NdShape({1024}), num_banks);
  std::vector<Count> tap_major(static_cast<size_t>(taps) *
                               static_cast<size_t>(groups));
  for (Count& b : tap_major) b = rng.uniform(0, num_banks - 1);
  AccessEngine issue_engine(map, ports);
  Count issue_cycles = 0;
  std::vector<NdIndex> group(static_cast<size_t>(taps));
  for (Count g = 0; g < groups; ++g) {
    for (Count t = 0; t < taps; ++t) {
      group[static_cast<size_t>(t)] = {
          tap_major[static_cast<size_t>(t * groups + g)]};
    }
    issue_cycles += issue_engine.issue(group);
  }
  AccessEngine soa_engine(map, ports);
  const Count soa_cycles = soa_engine.issue_batch_soa(tap_major, taps, groups);
  EXPECT_EQ(soa_cycles, issue_cycles)
      << "banks=" << num_banks << " taps=" << taps << " groups=" << groups;
  expect_stats_equal(soa_engine.stats(), issue_engine.stats());
}

TEST(AccessEngineSoa, MatchesPerGroupIssueOnRandomStreams) {
  Rng rng(20260808);
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    for (int trial = 0; trial < 30; ++trial) {
      const Count num_banks = rng.uniform(1, 64);
      const Count taps = rng.uniform(1, 9);
      const Count groups = rng.uniform(1, 50);
      const Count ports = rng.uniform(1, 2);
      expect_soa_matches_issue(num_banks, taps, groups, ports, rng);
    }
  }
}

TEST(AccessEngineSoa, WideBankCountTakesExactScalarPath) {
  // More than 64 banks: occupancy no longer fits one word, so the SoA
  // scorer must fall back to exact epoch-stamped counting.
  Rng rng(20260809);
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    expect_soa_matches_issue(/*num_banks=*/100, /*taps=*/7, /*groups=*/33,
                             /*ports=*/1, rng);
  }
}

TEST(AccessEngineSoa, MetricsEnabledStillMatches) {
  // Metrics force the exact path (the per-group histogram must fire);
  // statistics must not change.
  Rng rng(20260810);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  expect_soa_matches_issue(/*num_banks=*/13, /*taps=*/13, /*groups=*/21,
                           /*ports=*/1, rng);
  obs::set_metrics_enabled(was_enabled);
}

TEST(AccessEngineSoa, ZeroGroupsIsANoOp) {
  const StubMap map(NdShape({64}), 8);
  AccessEngine engine(map);
  EXPECT_EQ(engine.issue_batch_soa({}, /*taps=*/3, /*groups=*/0), 0);
  EXPECT_EQ(engine.stats().iterations, 0);
  EXPECT_EQ(engine.stats().cycles, 0);
}

TEST(AccessEngineSoa, RejectsBadArguments) {
  const StubMap map(NdShape({64}), 8);
  AccessEngine engine(map);
  const std::vector<Count> banks(6, 0);
  EXPECT_THROW((void)engine.issue_batch_soa(banks, 0, 6), InvalidArgument);
  EXPECT_THROW((void)engine.issue_batch_soa(banks, 4, 2), InvalidArgument);
  const std::vector<Count> out_of_range{0, 1, 8};
  EXPECT_THROW((void)engine.issue_batch_soa(out_of_range, 1, 3),
               InternalError);
}

}  // namespace
}  // namespace mempart::sim
