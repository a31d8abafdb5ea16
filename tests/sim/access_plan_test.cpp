#include "sim/access_plan.h"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/ltb.h"
#include "common/random.h"
#include "core/partitioner.h"
#include "img/banked_convolve.h"
#include "img/synthetic.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_program.h"
#include "pattern/kernel.h"
#include "pattern/pattern_library.h"
#include "support/plan_oracle.h"

namespace mempart::sim {
namespace {

CoreAddressMap solve_map(const Pattern& pattern, NdShape shape,
                         Count max_banks = 0,
                         ConstraintStrategy strategy =
                             ConstraintStrategy::kFastFold,
                         TailPolicy tail = TailPolicy::kPadded) {
  PartitionRequest req;
  req.pattern = pattern;
  req.array_shape = std::move(shape);
  req.max_banks = max_banks;
  req.strategy = strategy;
  req.tail = tail;
  PartitionSolution sol = Partitioner::solve(req);
  return CoreAddressMap(std::move(*sol.mapping));
}

using mempart::testing::expect_block_walk_matches_oracle;

void expect_stats_equal(const AccessStats& a, const AccessStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.conflict_cycles, b.conflict_cycles);
  EXPECT_EQ(a.worst_group_cycles, b.worst_group_cycles);
  EXPECT_EQ(a.bank_load, b.bank_load);
}

TEST(AccessPlan, RandomizedCoreMapsMatchOracle) {
  Rng rng(20260805);
  for (int trial = 0; trial < 40; ++trial) {
    Pattern pattern = [&] {
      switch (trial % 4) {
        case 0:
          return patterns::box2d(rng.uniform(2, 4));
        case 1:
          return patterns::cross2d(rng.uniform(1, 3));
        case 2:
          return patterns::row1d(rng.uniform(2, 6));
        default:
          return patterns::box3d(2);
      }
    }();
    std::vector<Count> extents;
    for (int d = 0; d < pattern.rank(); ++d) {
      extents.push_back(pattern.extent(d) + rng.uniform(3, 17));
    }
    const NdShape shape{extents};
    // Cycle through tail/fold/constraint configurations.
    const bool compact = trial % 3 == 1;
    const Count max_banks = trial % 3 == 2 ? (pattern.size() + 1) / 2 : 0;
    const auto strategy = trial % 6 == 5 ? ConstraintStrategy::kSameSize
                                         : ConstraintStrategy::kFastFold;
    const CoreAddressMap map =
        solve_map(pattern, shape, max_banks, strategy,
                  compact ? TailPolicy::kCompact : TailPolicy::kPadded);
    const loopnest::StencilProgram program(shape, pattern, "prop");
    const auto domain = loopnest::plan_domain(program.loop_nest());
    const AccessPlan plan(map, pattern, domain);
    EXPECT_TRUE(plan.compiled());
    expect_block_walk_matches_oracle(plan, map, pattern, domain);
  }
}

TEST(AccessPlan, LtbMapMatchesOracle) {
  const Pattern pattern = patterns::box2d(3);
  const NdShape shape({17, 23});
  // Explicit conflict-free transform: the searched lex-min alpha for box2d(3)
  // is (1, 3), whose innermost component shares a factor with the padded
  // extent and is rejected by LtbMapping's injectivity precondition. alpha =
  // (5, 1) keeps z = 5a + b distinct mod 13 over the 3x3 support and has
  // gcd(alpha_1, w'_1) = 1.
  const LtbAddressMap map(
      baseline::LtbMapping(shape, LinearTransform({5, 1}), 13));
  const loopnest::StencilProgram program(shape, pattern, "ltb");
  const auto domain = loopnest::plan_domain(program.loop_nest());
  const AccessPlan plan(map, pattern, domain);
  EXPECT_TRUE(plan.compiled());
  expect_block_walk_matches_oracle(plan, map, pattern, domain);
}

TEST(AccessPlan, FlatMapMatchesOracle) {
  const Pattern pattern = patterns::cross2d(2);
  const NdShape shape({11, 13});
  const FlatAddressMap map(shape);
  const loopnest::StencilProgram program(shape, pattern, "flat");
  const auto domain = loopnest::plan_domain(program.loop_nest());
  const AccessPlan plan(map, pattern, domain);
  EXPECT_TRUE(plan.compiled());
  expect_block_walk_matches_oracle(plan, map, pattern, domain);
}

TEST(AccessPlan, UnrolledProgramMatchesOracle) {
  const Pattern base = patterns::box2d(3);
  const NdShape shape({19, 26});
  const loopnest::StencilProgram program =
      loopnest::StencilProgram(shape, base, "unroll").unrolled(1, 2);
  const Pattern& pattern = program.extract_pattern();
  const CoreAddressMap map = solve_map(pattern, shape);
  const auto domain = loopnest::plan_domain(program.loop_nest());
  const AccessPlan plan(map, pattern, domain);
  EXPECT_TRUE(plan.compiled());
  expect_block_walk_matches_oracle(plan, map, pattern, domain);
}

TEST(AccessPlan, SimulateFastMatchesSimulateBitForBit) {
  struct Config {
    Pattern pattern;
    NdShape shape;
    Count max_banks;
    TailPolicy tail;
    Count ports;
  };
  const std::vector<Config> configs = {
      {patterns::log5x5(), NdShape({20, 22}), 0, TailPolicy::kPadded, 1},
      {patterns::log5x5(), NdShape({20, 26}), 10, TailPolicy::kPadded, 1},
      {patterns::box2d(3), NdShape({15, 21}), 0, TailPolicy::kCompact, 1},
      {patterns::box2d(3), NdShape({15, 21}), 4, TailPolicy::kPadded, 2},
      {patterns::box3d(2), NdShape({7, 8, 11}), 0, TailPolicy::kPadded, 1},
      {patterns::row1d(5), NdShape({43}), 0, TailPolicy::kCompact, 1},
  };
  for (const Config& config : configs) {
    const loopnest::StencilProgram program(config.shape, config.pattern, "ab");
    const CoreAddressMap map =
        solve_map(config.pattern, config.shape, config.max_banks,
                  ConstraintStrategy::kFastFold, config.tail);
    expect_stats_equal(loopnest::simulate_fast(program, map, config.ports),
                       loopnest::simulate(program, map, config.ports));
  }
}

TEST(AccessPlan, SimulateFastMatchesOnFlatAndLtbMaps) {
  const Pattern pattern = patterns::prewitt3x3();
  const NdShape shape({14, 18});
  const loopnest::StencilProgram program(shape, pattern, "maps");

  const FlatAddressMap flat(shape);
  expect_stats_equal(loopnest::simulate_fast(program, flat),
                     loopnest::simulate(program, flat));

  // Explicit injective transform (see LtbMapMatchesOracle): the searched
  // alpha for a 3x3 support is (1, 3), which LtbMapping now rejects for
  // shapes whose padded innermost extent shares a factor with 3.
  const LtbAddressMap ltb(
      baseline::LtbMapping(shape, LinearTransform({5, 1}), 13));
  expect_stats_equal(loopnest::simulate_fast(program, ltb),
                     loopnest::simulate(program, ltb));
}

/// An AddressMap shape the plan does not recognise: forces the generic
/// fallback and proves it reproduces the virtual path exactly.
class ScrambledMap final : public AddressMap {
 public:
  explicit ScrambledMap(NdShape shape) : shape_(std::move(shape)) {}
  [[nodiscard]] const NdShape& array_shape() const override { return shape_; }
  [[nodiscard]] Count num_banks() const override { return 3; }
  [[nodiscard]] Count bank_of(const NdIndex& x) const override {
    return (shape_.flatten(x) * 7) % 3;
  }
  [[nodiscard]] Address offset_of(const NdIndex& x) const override {
    return shape_.flatten(x) / 3;
  }
  [[nodiscard]] Count bank_capacity(Count) const override {
    return shape_.volume() / 3 + 1;
  }

 private:
  NdShape shape_;
};

TEST(AccessPlan, GenericFallbackMatchesOracle) {
  const Pattern pattern = patterns::box2d(2);
  const NdShape shape({9, 12});
  const ScrambledMap map(shape);
  EXPECT_FALSE(AccessPlan::supports(map));
  const loopnest::StencilProgram program(shape, pattern, "scrambled");
  const auto domain = loopnest::plan_domain(program.loop_nest());
  const AccessPlan plan(map, pattern, domain);
  EXPECT_FALSE(plan.compiled());
  expect_block_walk_matches_oracle(plan, map, pattern, domain);
  expect_stats_equal(loopnest::simulate_fast(program, map),
                     loopnest::simulate(program, map));
}

TEST(AccessPlan, FastConvolveMatchesReference) {
  const img::Image input = img::gradient(NdShape({18, 24}));
  const Kernel kernel = Kernel::from_matrix_2d(
      {{1.0, 2.0, 1.0}, {2.0, 4.0, 2.0}, {1.0, 2.0, 1.0}}, "blur");
  const std::vector<TailPolicy> tails = {TailPolicy::kPadded,
                                         TailPolicy::kCompact};
  for (const TailPolicy tail : tails) {
    const CoreAddressMap map =
        solve_map(kernel.support(), input.shape(), 0,
                  ConstraintStrategy::kFastFold, tail);
    const auto fast = img::convolve_banked(input, kernel, map);
    const auto ref = img::convolve_banked_reference(input, kernel, map);
    EXPECT_EQ(fast.output, ref.output);
    expect_stats_equal(fast.stats, ref.stats);
  }
  const FlatAddressMap flat(input.shape());
  const auto fast = img::convolve_banked(input, kernel, flat);
  const auto ref = img::convolve_banked_reference(input, kernel, flat);
  EXPECT_EQ(fast.output, ref.output);
  expect_stats_equal(fast.stats, ref.stats);
}

}  // namespace
}  // namespace mempart::sim
