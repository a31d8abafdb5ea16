#include "core/bank_search.h"

#include <gtest/gtest.h>

#include <ostream>

#include "common/errors.h"
#include "core/linear_transform.h"
#include "pattern/pattern_library.h"

namespace mempart {
namespace {

std::vector<Address> z_of(const Pattern& p) {
  return LinearTransform::derive(p).transform_values(p);
}

TEST(MinimizeBanks, LoGCaseStudy) {
  // §5.1: Q = {1..12, 14, 15, 16, 20}, N_f = 13.
  const BankSearchResult r = minimize_banks(z_of(patterns::log5x5()));
  EXPECT_EQ(r.num_banks, 13);
  EXPECT_EQ(r.max_difference, 20);
  EXPECT_EQ(r.difference_set,
            (std::vector<Count>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15,
                                16, 20}));
  EXPECT_EQ(r.rejected_candidates, 0);  // N_f = m immediately
}

struct BankCase {
  const char* name;
  Count expected_banks;
};

// Print the case as its pattern name. Without this gtest prints the raw
// bytes, `name`'s address among them, and ASLR makes that address (and so
// the listed test name) different on every build.
void PrintTo(const BankCase& c, std::ostream* os) { *os << c.name; }

class Table1BankNumber : public ::testing::TestWithParam<BankCase> {};

TEST_P(Table1BankNumber, MatchesPaper) {
  const auto& param = GetParam();
  for (const Pattern& p : patterns::table1_patterns()) {
    if (p.name() == param.name) {
      EXPECT_EQ(minimize_banks(z_of(p)).num_banks, param.expected_banks);
      return;
    }
  }
  FAIL() << "pattern not found: " << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table1BankNumber,
    ::testing::Values(BankCase{"LoG", 13}, BankCase{"Canny", 25},
                      BankCase{"Prewitt", 9}, BankCase{"SE", 5},
                      BankCase{"Sobel3D", 27}, BankCase{"Median", 8},
                      BankCase{"Gaussian", 13}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(MinimizeBanks, ResultIsConflictFree) {
  for (const Pattern& p : patterns::table1_patterns()) {
    const auto z = z_of(p);
    const BankSearchResult r = minimize_banks(z);
    EXPECT_TRUE(is_conflict_free_bank_count(z, r.num_banks)) << p.name();
  }
}

TEST(MinimizeBanks, ResultIsMinimalAboveM) {
  // No N in [m, N_f) may be conflict-free — N_f is the least feasible value.
  for (const Pattern& p : patterns::table1_patterns()) {
    const auto z = z_of(p);
    const BankSearchResult r = minimize_banks(z);
    for (Count n = p.size(); n < r.num_banks; ++n) {
      EXPECT_FALSE(is_conflict_free_bank_count(z, n))
          << p.name() << " N=" << n;
    }
  }
}

TEST(MinimizeBanks, SingleElement) {
  const BankSearchResult r = minimize_banks({42});
  EXPECT_EQ(r.num_banks, 1);
  EXPECT_TRUE(r.difference_set.empty());
}

TEST(MinimizeBanks, ContiguousRowNeedsExactlyM) {
  // z = {0..k-1}: every difference < k, so N_f = k.
  for (Count k = 2; k <= 12; ++k) {
    std::vector<Address> z;
    for (Count i = 0; i < k; ++i) z.push_back(i);
    EXPECT_EQ(minimize_banks(z).num_banks, k);
  }
}

TEST(MinimizeBanks, GapForcesExtraBank) {
  // z = {0, 1, 2, 3, 4, 5, 7}: m = 7 but 7 = |7-0| is in Q, so N_f = 8.
  const BankSearchResult r = minimize_banks({0, 1, 2, 3, 4, 5, 7});
  EXPECT_EQ(r.num_banks, 8);
  EXPECT_EQ(r.rejected_candidates, 1);
}

TEST(MinimizeBanks, MultipleOfCandidateAlsoRejects) {
  // z = {0, 9, 14}: m = 3; 3 divides 9 -> reject; 4: 8? no, diffs are
  // {9, 14, 5} -> 4 has multiples 8,12 not in Q... 4 is fine.
  const BankSearchResult r = minimize_banks({0, 9, 14});
  EXPECT_EQ(r.num_banks, 4);
}

TEST(MinimizeBanks, RejectsDuplicateValues) {
  EXPECT_THROW((void)minimize_banks({3, 3}), InvalidArgument);
}

TEST(MinimizeBanks, RejectsEmpty) {
  EXPECT_THROW((void)minimize_banks(std::vector<Address>{}), InvalidArgument);
}

TEST(IsConflictFree, NegativeValuesHandled) {
  // Differences are what matter; shifting z must not change the answer.
  const std::vector<Address> z{-5, -3, 0};
  const std::vector<Address> shifted{0, 2, 5};
  for (Count n = 3; n <= 8; ++n) {
    EXPECT_EQ(is_conflict_free_bank_count(z, n),
              is_conflict_free_bank_count(shifted, n));
  }
}

TEST(IsConflictFree, RejectsBadBankCount) {
  EXPECT_THROW((void)is_conflict_free_bank_count(std::vector<Address>{0, 1}, 0), InvalidArgument);
}

TEST(MinimizeBanks, LargeSpreadUsesDivisibilityFallback) {
  // M = 2^30 would make the dense existence table allocate a gigabyte per
  // solve; the fallback probes the deduplicated difference list instead and
  // must return the same minimal N_f. Q = {1, 2^30 - 1, 2^30}: N = 3 and
  // N = 4 each divide an element, N = 5 divides none.
  const std::vector<Address> z{0, 1, Count{1} << 30};
  const BankSearchResult r = minimize_banks(z);
  EXPECT_EQ(r.num_banks, 5);
  EXPECT_EQ(r.max_difference, Count{1} << 30);
  EXPECT_EQ(r.difference_set,
            (std::vector<Count>{1, (Count{1} << 30) - 1, Count{1} << 30}));
  EXPECT_TRUE(is_conflict_free_bank_count(z, r.num_banks));
  EXPECT_FALSE(is_conflict_free_bank_count(z, 4));
}

TEST(MinimizeBanks, FallbackAgreesWithTableOnTheBoundary) {
  // Same difference structure scaled to both sides of the 2^24 cutoff: the
  // two code paths must pick the same bank count.
  for (Count scale : {Count{1} << 20, Count{1} << 28}) {
    const std::vector<Address> z{0, 3 * scale, 7 * scale, 12 * scale};
    const BankSearchResult r = minimize_banks(z);
    EXPECT_TRUE(is_conflict_free_bank_count(z, r.num_banks)) << scale;
    for (Count n = static_cast<Count>(z.size()); n < r.num_banks; ++n) {
      EXPECT_FALSE(is_conflict_free_bank_count(z, n)) << scale << " N=" << n;
    }
  }
}

TEST(MinimizeBanks, HugeNegativeAndPositiveValuesDoNotWrap) {
  // The spread INT64_MAX - (INT64_MIN + 2) overflows; the pair pass must
  // raise the structured overflow error rather than feed a negative
  // "difference" into the search.
  EXPECT_THROW((void)minimize_banks({INT64_MIN + 2, 0, INT64_MAX}),
               OverflowError);
}

}  // namespace
}  // namespace mempart
