#include "baseline/ltb.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "common/errors.h"
#include "common/math_util.h"
#include "core/bank_search.h"
#include "pattern/pattern_library.h"
#include "support/alloc_counter.h"

namespace mempart {
namespace {

using baseline::ltb_conflict_free;
using baseline::ltb_solve;
using baseline::LtbOptions;
using baseline::LtbSolution;

struct LtbCase {
  const char* name;
  Count expected_banks;
};

// Print the case as its pattern name. Without this gtest prints the raw
// bytes, `name`'s address among them, and ASLR makes that address (and so
// the listed test name) different on every build.
void PrintTo(const LtbCase& c, std::ostream* os) { *os << c.name; }

class Table1LtbBankNumber : public ::testing::TestWithParam<LtbCase> {};

TEST_P(Table1LtbBankNumber, MatchesPaper) {
  for (const Pattern& p : patterns::table1_patterns()) {
    if (p.name() == GetParam().name) {
      EXPECT_EQ(ltb_solve(p).num_banks, GetParam().expected_banks);
      return;
    }
  }
  FAIL() << "pattern not found";
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table1LtbBankNumber,
    ::testing::Values(LtbCase{"LoG", 13}, LtbCase{"Canny", 25},
                      LtbCase{"Prewitt", 9}, LtbCase{"SE", 5},
                      LtbCase{"Sobel3D", 27}, LtbCase{"Median", 7},
                      LtbCase{"Gaussian", 10}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(LtbSolve, FoundTransformIsActuallyConflictFree) {
  for (const Pattern& p : patterns::table1_patterns()) {
    const LtbSolution sol = ltb_solve(p);
    std::set<Count> banks;
    for (const NdIndex& delta : p.offsets()) {
      banks.insert(euclid_mod(sol.transform.apply(delta), sol.num_banks));
    }
    EXPECT_EQ(static_cast<Count>(banks.size()), p.size()) << p.name();
  }
}

TEST(LtbSolve, BeatsOrEqualsClosedFormOnBankCount) {
  // Exhaustive search is optimal over linear transforms, so it can never
  // need MORE banks than the closed-form alpha (which is one candidate).
  for (const Pattern& p : patterns::table1_patterns()) {
    const LtbSolution sol = ltb_solve(p);
    const auto z = LinearTransform::derive(p).transform_values(p);
    const Count ours = minimize_banks(z).num_banks;
    EXPECT_LE(sol.num_banks, ours) << p.name();
  }
}

TEST(LtbSolve, CostsOrdersOfMagnitudeMoreThanClosedForm) {
  // The headline claim of the paper, in arithmetic operations.
  const Pattern p = patterns::log5x5();
  const LtbSolution sol = ltb_solve(p);

  OpScope ours;
  const LinearTransform t = LinearTransform::derive(p);
  (void)minimize_banks(t.transform_values(p));
  EXPECT_GT(sol.ops.arithmetic(), 4 * ours.tally().arithmetic());
  EXPECT_GT(sol.vectors_tried, 1);
}

TEST(LtbSolve, RejectsCapBelowPatternSize) {
  LtbOptions options;
  options.max_banks = 13;  // Canny needs at least m = 25 banks
  EXPECT_THROW((void)ltb_solve(patterns::canny5x5(), options),
               InvalidArgument);
}

TEST(LtbSolve, ReportsExhaustionWhenNoSolutionUnderCap) {
  LtbOptions options;
  options.max_banks = 9;  // Gaussian9: m = 9 but no 9-bank transform exists
  EXPECT_THROW((void)ltb_solve(patterns::gaussian9(), options), InvalidState);
}

TEST(LtbSolve, Rank1RowPattern) {
  const LtbSolution sol = ltb_solve(patterns::row1d(5));
  EXPECT_EQ(sol.num_banks, 5);
}

// --- Pruned enumeration (LtbOptions::prune) ---
//
// The conflict-difference DFS must return bit-for-bit the same solution as
// the exhaustive lexicographic scan — same minimal N AND same (first in
// lex order) alpha — on every pattern.

TEST(LtbPrunedSolve, MatchesUnprunedOnTable1Patterns) {
  for (const Pattern& p : patterns::table1_patterns()) {
    const LtbSolution want = ltb_solve(p);
    LtbOptions pruned;
    pruned.prune = true;
    const LtbSolution got = ltb_solve(p, pruned);
    EXPECT_EQ(got.num_banks, want.num_banks) << p.name();
    EXPECT_EQ(got.transform.alpha(), want.transform.alpha()) << p.name();
    // The DFS visits strictly fewer complete alphas than the full scan
    // (on these patterns; in the worst case it ties).
    EXPECT_LE(got.vectors_tried, want.vectors_tried) << p.name();
  }
}

TEST(LtbPrunedSolve, ReportsExhaustionLikeTheUnprunedScan) {
  LtbOptions options;
  options.prune = true;
  options.max_banks = 9;
  EXPECT_THROW((void)ltb_solve(patterns::gaussian9(), options), InvalidState);
}

TEST(LtbPrunedSolve, Rank1AndTightCapMatchUnpruned) {
  // Rank-1 degenerates the DFS to a single level; a cap exactly at the
  // answer leaves no slack for the bound to overshoot.
  LtbOptions pruned;
  pruned.prune = true;
  EXPECT_EQ(ltb_solve(patterns::row1d(5), pruned).num_banks, 5);
  LtbOptions tight = pruned;
  tight.max_banks = 13;  // LoG answer is exactly 13
  const LtbSolution got = ltb_solve(patterns::log5x5(), tight);
  const LtbSolution want = ltb_solve(patterns::log5x5());
  EXPECT_EQ(got.num_banks, want.num_banks);
  EXPECT_EQ(got.transform.alpha(), want.transform.alpha());
}

TEST(LtbPrunedSolve, WarmSolveIntoAllocatesNothing) {
  const Pattern p = patterns::log5x5();
  LtbOptions options;
  options.prune = true;
  baseline::LtbScratch scratch;
  LtbSolution out;
  baseline::ltb_solve_into(p, options, scratch, out);  // sizes every buffer
  baseline::ltb_solve_into(p, options, scratch, out);
  const long before = testsupport::allocation_count();
  for (int i = 0; i < 50; ++i) baseline::ltb_solve_into(p, options, scratch, out);
  const long after = testsupport::allocation_count();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(out.num_banks, 13);
}

TEST(LtbConflictFree, AgreesWithDirectCheck) {
  const Pattern p = patterns::gaussian9();
  // alpha = (1,3) mod 10 is the known-good LTB solution for the 5x5 cross.
  EXPECT_TRUE(ltb_conflict_free(p, LinearTransform({1, 3}), 10));
  // alpha = (5,1) mod 10 collides.
  EXPECT_FALSE(ltb_conflict_free(p, LinearTransform({5, 1}), 10));
  EXPECT_THROW((void)ltb_conflict_free(p, LinearTransform({1}), 10),
               InvalidArgument);
  EXPECT_THROW((void)ltb_conflict_free(p, LinearTransform({1, 3}), 0),
               InvalidArgument);
}

}  // namespace
}  // namespace mempart
