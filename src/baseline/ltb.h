// LTB baseline: the linear-transformation-based partitioning of
// Wang, Li, Zhang, Zhang, Cong — "Memory partitioning for multidimensional
// arrays in high-level synthesis", DAC 2013 (reference [9] of the paper).
//
// LTB also maps with B(x) = (alpha . x) mod N, but finds alpha by exhaustive
// search: for each candidate N starting at m it enumerates the N^n transform
// vectors alpha in [0, N)^n and keeps the first that maps the pattern's m
// offsets to m distinct banks. Cost O(C * N^n * m^2) — the exponential-in-n
// search the DAC'15 paper eliminates. Because the search is exhaustive, the
// resulting N is the true minimum over linear transforms, so it can beat the
// closed-form approach by a few banks on some patterns (Median: 7 vs 8,
// Gaussian: 10 vs 13 in Table 1) while costing orders of magnitude more
// arithmetic.
//
// The enumeration can optionally be pruned with the conflict-difference
// bound (LtbOptions::prune): alpha conflicts iff some pairwise offset
// difference dv has (alpha . dv) mod N == 0, and whether that holds for
// dv depends only on the alpha coordinates up to dv's last nonzero
// coordinate. Grouping the (deduplicated) difference vectors by that
// coordinate lets a DFS over alpha prefixes discard a whole
// [0, N)^(n-1-d) subtree the moment a prefix already hits a difference —
// without changing the answer: the DFS visits prefixes in lexicographic
// order and only skips alphas that are provably conflicted, so the first
// surviving leaf is exactly the alpha the unpruned scan returns.
//
// Pruning is OFF by default on purpose. The unpruned walk is the DAC'13
// baseline whose arithmetic cost Table 1 reproduces; the pruned walk
// charges only the dot products, modulos and compares it really performs,
// which collapses the measured cost gap the repo exists to demonstrate.
// Cold-solve consumers that want LTB as a fast competitor (bench_solver's
// A/B, batch drivers) opt in and pass an LtbScratch so warm solves
// allocate nothing; the paper-comparison paths keep the faithful cost
// model.
#pragma once

#include <optional>
#include <vector>

#include "common/annotations.h"
#include "common/op_counter.h"
#include "common/types.h"
#include "core/linear_transform.h"
#include "pattern/pattern.h"

namespace mempart::baseline {

/// Outcome of the exhaustive LTB search.
struct LtbSolution {
  Count num_banks = 0;           ///< minimal N over all linear transforms
  LinearTransform transform;     ///< the first conflict-free alpha found
  Count vectors_tried = 0;       ///< candidate alphas evaluated
  OpTally ops;                   ///< arithmetic charged during the search
};

/// Search controls.
struct LtbOptions {
  /// Abort threshold: highest N to try before giving up (a pattern always
  /// has a solution at some N <= max z-spread + 1, but the exhaustive search
  /// gets expensive; the paper's benchmarks all resolve within m + a few).
  Count max_banks = 256;

  /// Prune the enumeration with the conflict-difference bound (see the
  /// header comment). Identical num_banks and transform; vectors_tried
  /// counts only the complete alphas the DFS actually evaluated and the
  /// op tally shrinks to the work really done, so leave this off anywhere
  /// the DAC'13 cost model is being measured.
  bool prune = false;
};

/// Reusable buffers for the pruned enumeration: the grouped difference
/// vectors and the DFS alpha state. Batch drivers (bench_solver's LTB leg)
/// own one and pass it in, so warm solves allocate nothing — the mirror of
/// the Partitioner's BankSearchScratch.
struct LtbScratch {
  std::vector<Count> pair_coords;   ///< raw pairwise diffs, rank coords each
  std::vector<Count> order;         ///< sort permutation for dedup
  std::vector<Count> grouped;       ///< deduped diffs grouped by last nonzero
  std::vector<Count> group_begin;   ///< rank+1 offsets into grouped (rows)
  std::vector<Count> group_cursor;  ///< counting-sort write cursors
  std::vector<Count> alpha;         ///< sequential candidate vector
  std::vector<Count> bank_scratch;  ///< unpruned justification bank values
};

/// Runs the exhaustive search. Throws InvalidState if no solution is found
/// within options.max_banks.
[[nodiscard]] LtbSolution ltb_solve(const Pattern& pattern,
                                    const LtbOptions& options = {});

/// ltb_solve with caller-owned working buffers.
[[nodiscard]] LtbSolution ltb_solve(const Pattern& pattern,
                                    const LtbOptions& options,
                                    LtbScratch& scratch);

/// Allocation-free variant for warm batch loops: reuses `scratch` and
/// writes the winner into `out` in place (out.transform.assign reuses its
/// capacity). Behaves exactly like ltb_solve otherwise.
MEMPART_NOALLOC void ltb_solve_into(const Pattern& pattern,
                                    const LtbOptions& options,
                                    LtbScratch& scratch, LtbSolution& out);

/// True iff `alpha` maps the pattern's offsets to distinct banks mod N.
/// Exposed for tests and the op-count model; charges ops like the search.
[[nodiscard]] bool ltb_conflict_free(const Pattern& pattern,
                                     const LinearTransform& alpha, Count banks);

}  // namespace mempart::baseline
