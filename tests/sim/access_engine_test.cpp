#include "sim/access_engine.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "core/partitioner.h"
#include "loopnest/stencil_program.h"
#include "pattern/pattern_library.h"

namespace mempart::sim {
namespace {

CoreAddressMap log_map(NdShape shape, Count banks, Count fold = 0) {
  BankMapping mapping(std::move(shape),
                      LinearTransform::derive(patterns::log5x5()),
                      {.num_banks = banks, .fold_modulus = fold});
  return CoreAddressMap(std::move(mapping));
}

TEST(AccessEngine, ConflictFreeGroupTakesOneCycle) {
  const auto map = log_map(NdShape({14, 16}), 13);
  AccessEngine engine(map);
  const Pattern p = patterns::log5x5();
  EXPECT_EQ(engine.issue(p.at({2, 3})), 1);
  EXPECT_EQ(engine.stats().cycles, 1);
  EXPECT_EQ(engine.stats().accesses, 13);
  EXPECT_EQ(engine.stats().conflict_cycles, 0);
  EXPECT_DOUBLE_EQ(engine.stats().effective_bandwidth(), 13.0);
}

TEST(AccessEngine, FlatMemorySerialises) {
  const FlatAddressMap map{NdShape({14, 16})};
  AccessEngine engine(map);
  const Pattern p = patterns::log5x5();
  EXPECT_EQ(engine.issue(p.at({2, 3})), 13);
  EXPECT_EQ(engine.stats().conflict_cycles, 12);
  EXPECT_DOUBLE_EQ(engine.stats().effective_bandwidth(), 1.0);
}

TEST(AccessEngine, FoldedMappingTakesTwoCycles) {
  // LoG folded 13 -> 7 banks: delta_P = 1, so every group takes 2 cycles.
  const auto map = log_map(NdShape({14, 26}), 7, /*fold=*/13);
  AccessEngine engine(map);
  const Pattern p = patterns::log5x5();
  EXPECT_EQ(engine.issue(p.at({2, 3})), 2);
  EXPECT_EQ(engine.issue(p.at({5, 9})), 2);
  EXPECT_EQ(engine.stats().cycles, 4);
  EXPECT_EQ(engine.stats().worst_group_cycles, 2);
}

TEST(AccessEngine, TwoPortsHalveConflicts) {
  const auto map = log_map(NdShape({14, 26}), 7, /*fold=*/13);
  AccessEngine engine(map, /*ports_per_bank=*/2);
  const Pattern p = patterns::log5x5();
  // Worst bank demand is 2; with 2 ports the group completes in 1 cycle.
  EXPECT_EQ(engine.issue(p.at({2, 3})), 1);
}

TEST(AccessEngine, BankLoadHistogram) {
  const auto map = log_map(NdShape({14, 16}), 13);
  AccessEngine engine(map);
  const Pattern p = patterns::log5x5();
  engine.issue(p.at({2, 3}));
  engine.issue(p.at({3, 3}));
  Count total = 0;
  for (Count l : engine.stats().bank_load) total += l;
  EXPECT_EQ(total, 26);
  // With delta = 0, each group spreads over all 13 banks: load 2 everywhere.
  for (Count l : engine.stats().bank_load) EXPECT_EQ(l, 2);
}

TEST(AccessEngine, ResetClearsStats) {
  const auto map = log_map(NdShape({14, 16}), 13);
  AccessEngine engine(map);
  engine.issue(patterns::log5x5().at({2, 3}));
  engine.reset();
  EXPECT_EQ(engine.stats().cycles, 0);
  EXPECT_EQ(engine.stats().iterations, 0);
  EXPECT_EQ(engine.stats().bank_load.size(), 13u);
}

TEST(AccessEngine, RejectsEmptyGroupAndBadPorts) {
  const auto map = log_map(NdShape({14, 16}), 13);
  AccessEngine engine(map);
  EXPECT_THROW((void)engine.issue({}), InvalidArgument);
  EXPECT_THROW((void)AccessEngine(map, 0), InvalidArgument);
}

// Position invariance (§4.3.2): under the solver's mapping every iteration
// of the LoG loop nest costs exactly delta_P + 1 cycles, wherever the
// window lands. Returns how many iterations cost anything else.
Count log_iterations_not_costing(Count cycles, const NdShape& shape,
                                 Count max_banks) {
  PartitionRequest request;
  request.pattern = patterns::log5x5();
  request.array_shape = shape;
  request.max_banks = max_banks;
  PartitionSolution solution = Partitioner::solve(request);
  EXPECT_EQ(solution.delta_ii() + 1, cycles);
  const CoreAddressMap map(std::move(*solution.mapping));
  AccessEngine engine(map);
  const loopnest::StencilProgram program(shape, patterns::log5x5(), "LoG");
  Count off = 0;
  program.loop_nest().for_each([&](const NdIndex& iv) {
    if (engine.issue(program.reads_at(iv)) != cycles) ++off;
  });
  EXPECT_EQ(engine.stats().iterations,
            program.loop_nest().total_iterations());
  EXPECT_GT(engine.stats().iterations, 0);
  return off;
}

TEST(AccessEngine, EveryLogIterationTakesOneCycleUnconstrained) {
  EXPECT_EQ(log_iterations_not_costing(1, NdShape({14, 16}), 0), 0);
}

TEST(AccessEngine, EveryLogIterationTakesTwoCyclesUnderABankCap) {
  EXPECT_EQ(log_iterations_not_costing(2, NdShape({14, 26}), 10), 0);
}

TEST(AccessStats, EmptyStatsAreZero) {
  const AccessStats s;
  EXPECT_DOUBLE_EQ(s.avg_cycles_per_iteration(), 0.0);
  EXPECT_DOUBLE_EQ(s.effective_bandwidth(), 0.0);
}

}  // namespace
}  // namespace mempart::sim
