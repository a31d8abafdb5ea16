// Pins every Table 1 cell this reproduction derives analytically, plus the
// §2 motivational numbers and the §5.1 case study — the quantitative
// contract between this library and the paper. See EXPERIMENTS.md for the
// cells that can only be compared qualitatively (op counts, wall time,
// LTB Sobel-3D overhead).
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <stdexcept>

#include "baseline/ltb.h"
#include "baseline/ltb_mapping.h"
#include "core/overhead.h"
#include "core/partitioner.h"
#include "hw/bram.h"
#include "hw/resolutions.h"
#include "pattern/pattern_library.h"

namespace mempart {
namespace {

struct OverheadRow {
  const char* pattern;
  Count our_banks;
  Count ltb_banks;
  bool three_d;
  // Paper's Table 1 storage-overhead cells in memory blocks, SD..4K.
  std::array<Count, 5> ours;
  std::array<Count, 5> ltb;
  bool ltb_cells_reproducible;  ///< false for Sobel3D (DESIGN.md §2)
};

// Print the row as its pattern name. Without this gtest prints the raw
// bytes, `pattern`'s address among them, and ASLR makes that address (and
// so the listed test name) different on every build.
void PrintTo(const OverheadRow& row, std::ostream* os) { *os << row.pattern; }

// Values copied from Table 1 of the paper.
const OverheadRow kRows[] = {
    {"LoG", 13, 13, false, {2, 19, 41, 55, 76}, {10, 28, 49, 58, 106}, true},
    {"Canny", 25, 25, false, {23, 12, 69, 0, 103}, {32, 38, 79, 43, 142}, true},
    {"Prewitt", 9, 9, false, {7, 0, 0, 10, 0}, {14, 9, 12, 24, 12}, true},
    {"SE", 5, 5, false, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, true},
    {"Sobel3D", 27, 27, true,
     {2731, 8192, 18432, 36409, 73728},
     {8193, 24578, 36864, 78508, 105984}, false},
    {"Median", 8, 7, false, {0, 0, 0, 0, 0}, {7, 4, 27, 20, 33}, true},
    {"Gaussian", 13, 10, false, {2, 19, 41, 55, 76}, {0, 0, 0, 0, 0}, true},
};

const Pattern& pattern_named(const char* name) {
  static const auto all = patterns::table1_patterns();
  for (const Pattern& p : all) {
    if (p.name() == name) return p;
  }
  throw std::runtime_error("unknown pattern");
}

class Table1Row : public ::testing::TestWithParam<OverheadRow> {};

TEST_P(Table1Row, BankNumbersMatchPaper) {
  const OverheadRow& row = GetParam();
  const Pattern& p = pattern_named(row.pattern);

  PartitionRequest req;
  req.pattern = p;
  EXPECT_EQ(Partitioner::solve(req).num_banks(), row.our_banks);
  EXPECT_EQ(baseline::ltb_solve(p).num_banks, row.ltb_banks);
}

TEST_P(Table1Row, OurStorageOverheadBlocksMatchPaperExactly) {
  const OverheadRow& row = GetParam();
  const Pattern& p = pattern_named(row.pattern);
  const auto& resolutions = hw::table1_resolutions();
  for (size_t i = 0; i < resolutions.size(); ++i) {
    const NdShape shape =
        row.three_d ? resolutions[i].shape3d() : resolutions[i].shape2d();
    const Count elems = storage_overhead_elements(shape, row.our_banks);
    EXPECT_EQ(hw::overhead_blocks(elems), row.ours[i])
        << p.name() << " @ " << resolutions[i].name;
  }
}

TEST_P(Table1Row, LtbStorageOverheadBlocksMatchPaperWhereReproducible) {
  const OverheadRow& row = GetParam();
  const auto& resolutions = hw::table1_resolutions();
  for (size_t i = 0; i < resolutions.size(); ++i) {
    const NdShape shape =
        row.three_d ? resolutions[i].shape3d() : resolutions[i].shape2d();
    const Count elems =
        baseline::ltb_storage_overhead_elements(shape, row.ltb_banks);
    const Count blocks = hw::overhead_blocks(elems);
    if (row.ltb_cells_reproducible) {
      EXPECT_EQ(blocks, row.ltb[i])
          << row.pattern << " @ " << resolutions[i].name;
    } else {
      // Sobel3D: the paper's LTB cells do not fit the all-dims padding
      // model; require only the qualitative relation (LTB >= ours, same
      // order of magnitude).
      const Count ours = hw::overhead_blocks(
          storage_overhead_elements(shape, row.our_banks));
      EXPECT_GE(blocks, ours) << resolutions[i].name;
      EXPECT_LT(blocks, 40 * (ours + 1)) << resolutions[i].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, Table1Row, ::testing::ValuesIn(kRows),
                         [](const auto& param_info) {
                           return std::string(param_info.param.pattern);
                         });

TEST(MotivationalExample, Section2Numbers) {
  // Ours: 640 extra elements for LoG at 640x480; LTB: 5450.
  const NdShape sd({640, 480});
  EXPECT_EQ(storage_overhead_elements(sd, 13), 640);
  EXPECT_EQ(baseline::ltb_storage_overhead_elements(sd, 13), 5450);
}

TEST(MotivationalExample, ArithmeticGapIsLarge) {
  // §2 quotes 92 vs 1053 ops for LoG. Our instrumentation counts real
  // operations, so only the ratio is comparable: LTB must cost at least 4x.
  const Pattern p = patterns::log5x5();
  PartitionRequest req;
  req.pattern = p;
  const PartitionSolution ours = Partitioner::solve(req);
  const baseline::LtbSolution ltb = baseline::ltb_solve(p);
  EXPECT_GT(ltb.ops.arithmetic(), 4 * ours.ops.arithmetic());
}

TEST(CaseStudy, Section51EndToEnd) {
  // alpha = (5,1); Nf = 13; fast approach F=2, Nc=7; same-size Nc=7 with
  // delta=1 (ties with 9).
  const Pattern p = patterns::log5x5();

  PartitionRequest unconstrained;
  unconstrained.pattern = p;
  const PartitionSolution base = Partitioner::solve(unconstrained);
  EXPECT_EQ(base.transform.alpha(), (std::vector<Count>{5, 1}));
  EXPECT_EQ(base.search.num_banks, 13);

  PartitionRequest fast = unconstrained;
  fast.max_banks = 10;
  fast.strategy = ConstraintStrategy::kFastFold;
  const PartitionSolution f = Partitioner::solve(fast);
  EXPECT_EQ(f.constraint.fold_factor, 2);
  EXPECT_EQ(f.num_banks(), 7);

  PartitionRequest same = unconstrained;
  same.max_banks = 10;
  same.strategy = ConstraintStrategy::kSameSize;
  const PartitionSolution s = Partitioner::solve(same);
  EXPECT_EQ(s.num_banks(), 7);
  EXPECT_EQ(s.delta_ii(), 1);
  const std::vector<Count> expected_delta_plus_one{13, 9, 5, 6, 5, 3, 2,
                                                   3, 2, 3};
  ASSERT_EQ(s.constraint.sweep.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s.constraint.sweep[i] + 1, expected_delta_plus_one[i])
        << "N=" << i + 1;
  }
}

TEST(Complexity, OpsScaleLikeMSquaredNotExponentially) {
  // Our solver's ops grow ~m^2; LTB's grow with N^n per candidate N. On the
  // 3-D Sobel pattern the gap must be at least 100x.
  const Pattern p = patterns::sobel3d();
  PartitionRequest req;
  req.pattern = p;
  const PartitionSolution ours = Partitioner::solve(req);
  const baseline::LtbSolution ltb = baseline::ltb_solve(p);
  EXPECT_GT(ltb.ops.arithmetic(), 100 * ours.ops.arithmetic());
}

}  // namespace
}  // namespace mempart
