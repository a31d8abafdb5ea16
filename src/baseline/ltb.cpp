#include "baseline/ltb.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/errors.h"
#include "common/math_util.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::baseline {
namespace {

/// Checks one candidate (alpha, N), charging the justification cost the
/// DAC'13 flow pays per vector: all m transformed values are computed up
/// front (per element one dot product — n mul, n-1 add — and one modulo),
/// then the bank indices are tested pairwise for distinctness ("it takes
/// O(m^2) times to justify the solution", §4.3.1). The pairwise scan stops
/// at the first collision; the m transform evaluations cannot be skipped.
bool candidate_conflict_free(const Pattern& pattern,
                             const std::vector<Count>& alpha, Count banks,
                             std::vector<Count>& scratch) {
  const int n = pattern.rank();
  const Count m = pattern.size();
  scratch.clear();
  for (const NdIndex& delta : pattern.offsets()) {
    Address v = 0;
    for (size_t d = 0; d < alpha.size(); ++d) v += alpha[d] * delta[d];
    scratch.push_back(euclid_mod(v, banks));  // mempart-analyze: allow(noalloc) first-touch growth of reused LtbScratch capacity; warm iterations reallocate nothing
  }
  OpCounter::charge(OpKind::kMul, m * n);
  OpCounter::charge(OpKind::kAdd, m * (n - 1));
  OpCounter::charge(OpKind::kDiv, m);
  for (size_t i = 0; i + 1 < scratch.size(); ++i) {
    for (size_t j = i + 1; j < scratch.size(); ++j) {
      OpCounter::charge(OpKind::kCompare);
      if (scratch[i] == scratch[j]) return false;
    }
  }
  return true;
}

/// Advances `alpha` to the next vector in [0, banks)^n lexicographic order;
/// false when wrapped around.
bool next_vector(std::vector<Count>& alpha, Count banks) {
  for (size_t d = alpha.size(); d-- > 0;) {
    if (++alpha[d] < banks) return true;
    alpha[d] = 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pruned enumeration (LtbOptions::prune)
// ---------------------------------------------------------------------------

/// The grouped difference vectors of one pattern: row r of `rows` holds
/// rank coordinates; rows [group_begin[d], group_begin[d+1]) have their
/// last nonzero coordinate at d, so they become decidable the moment
/// alpha[d] is assigned. `conflicted` is the degenerate duplicate-offset
/// case (a zero difference vector): every alpha conflicts at every N.
struct DiffGroups {
  const Count* rows = nullptr;
  const Count* group_begin = nullptr;  // rank + 1 entries
  int rank = 1;
  bool conflicted = false;
};

/// Builds the deduplicated, sign-canonicalized, grouped difference vectors
/// into `scratch`. Dedup matters: collinear taps produce the same
/// direction many times over, and every duplicate would be re-tested at
/// every DFS node of its group's depth.
DiffGroups build_diff_groups(const Pattern& pattern, LtbScratch& scratch) {
  const int rank = pattern.rank();
  const auto urank = static_cast<size_t>(rank);
  const Count m = pattern.size();
  DiffGroups groups;
  groups.rank = rank;

  std::vector<Count>& pairs = scratch.pair_coords;
  pairs.clear();
  const auto& offsets = pattern.offsets();
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (size_t j = i + 1; j < offsets.size(); ++j) {
      const size_t base = pairs.size();
      pairs.resize(base + urank);  // mempart-analyze: allow(noalloc) first-touch growth of reused LtbScratch capacity; warm iterations reallocate nothing
      Count lead = 0;
      for (size_t d = 0; d < urank; ++d) {
        const Count c = offsets[j][d] - offsets[i][d];
        if (lead == 0) lead = c;
        // (alpha . dv) mod N == 0 iff (alpha . -dv) mod N == 0: canonical
        // sign (first nonzero positive) makes dv and -dv dedup together.
        pairs[base + d] = lead < 0 ? -c : c;
      }
      if (lead == 0) groups.conflicted = true;  // duplicate offsets
    }
  }
  const Count num_pairs = m * (m - 1) / 2;

  std::vector<Count>& order = scratch.order;
  order.resize(static_cast<size_t>(num_pairs));  // mempart-analyze: allow(noalloc) first-touch growth of reused LtbScratch capacity; warm iterations reallocate nothing
  for (size_t r = 0; r < order.size(); ++r) order[r] = static_cast<Count>(r);
  const Count* data = pairs.data();
  auto row_less = [data, urank](Count a, Count b) {
    const Count* ra = data + static_cast<size_t>(a) * urank;
    const Count* rb = data + static_cast<size_t>(b) * urank;
    return std::lexicographical_compare(ra, ra + urank, rb, rb + urank);
  };
  auto row_eq = [data, urank](Count a, Count b) {
    const Count* ra = data + static_cast<size_t>(a) * urank;
    const Count* rb = data + static_cast<size_t>(b) * urank;
    return std::equal(ra, ra + urank, rb);
  };
  std::sort(order.begin(), order.end(), row_less);
  order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());

  // Counting sort by last-nonzero coordinate: sizes, prefix sums, place.
  std::vector<Count>& begin = scratch.group_begin;
  begin.assign(urank + 1, 0);
  auto last_nonzero = [data, urank](Count r) {
    const Count* row = data + static_cast<size_t>(r) * urank;
    for (size_t d = urank; d-- > 0;) {
      if (row[d] != 0) return d;
    }
    return size_t{0};  // zero rows: parked in group 0, conflicted anyway
  };
  for (const Count r : order) ++begin[last_nonzero(r) + 1];
  for (size_t d = 1; d <= urank; ++d) begin[d] += begin[d - 1];
  std::vector<Count>& grouped = scratch.grouped;
  grouped.resize(order.size() * urank);  // mempart-analyze: allow(noalloc) first-touch growth of reused LtbScratch capacity; warm iterations reallocate nothing
  std::vector<Count>& cursor = scratch.group_cursor;
  cursor.assign(begin.begin(), begin.end());
  for (const Count r : order) {
    const size_t d = last_nonzero(r);
    const auto slot = static_cast<size_t>(cursor[d]++);
    std::copy(data + static_cast<size_t>(r) * urank,
              data + static_cast<size_t>(r) * urank + urank,
              grouped.begin() + static_cast<std::ptrdiff_t>(slot * urank));
  }
  groups.rows = grouped.data();
  groups.group_begin = begin.data();
  return groups;
}

/// The DFS state for a fixed candidate N. Op charges accumulate locally
/// and flush once per candidate so the hot walk is not a stream of
/// thread-local counter increments.
struct Dfs {
  const DiffGroups* groups = nullptr;
  Count banks = 0;
  Count* alpha = nullptr;
  Count leaves = 0;
  Count mul = 0;
  Count add = 0;
  Count div = 0;
  Count cmp = 0;

  /// True iff no difference vector in depth-d's group is congruent to 0
  /// mod banks under the current alpha[0..d] prefix.
  bool prefix_ok(size_t d) {
    const Count* rows = groups->rows;
    const auto rank = static_cast<size_t>(groups->rank);
    const auto lo = static_cast<size_t>(groups->group_begin[d]);
    const auto hi = static_cast<size_t>(groups->group_begin[d + 1]);
    for (size_t r = lo; r < hi; ++r) {
      const Count* row = rows + r * rank;
      Count dot = 0;
      for (size_t j = 0; j <= d; ++j) dot += alpha[j] * row[j];
      mul += static_cast<Count>(d) + 1;
      add += static_cast<Count>(d);
      div += 1;
      cmp += 1;
      if (euclid_mod(dot, banks) == 0) return false;
    }
    return true;
  }

  /// Lexicographic DFS from depth d; true once alpha holds the first
  /// conflict-free completion of the current prefix.
  bool search(size_t d) {
    const auto rank = static_cast<size_t>(groups->rank);
    for (Count a = 0; a < banks; ++a) {
      alpha[d] = a;
      const bool leaf = d + 1 == rank;
      if (leaf) ++leaves;
      if (!prefix_ok(d)) continue;
      if (leaf) return true;
      if (search(d + 1)) return true;
    }
    return false;
  }

  void flush_charges() const {
    OpCounter::charge(OpKind::kMul, mul);
    OpCounter::charge(OpKind::kAdd, add);
    OpCounter::charge(OpKind::kDiv, div);
    OpCounter::charge(OpKind::kCompare, cmp);
  }
};

void finish_solution(Count banks, std::span<const Count> alpha,
                     OpScope& scope, obs::Span& span, LtbSolution& out) {
  out.num_banks = banks;
  out.transform.assign(alpha);
  out.ops = scope.tally();
  span.arg("banks", banks).arg("vectors_tried", out.vectors_tried);
  obs::count("ltb.solves");
  obs::count("ltb.vectors_tried", out.vectors_tried);
  obs::record_op_tally(out.ops, "ltb.ops");
}

/// The pruned search. Returns via `out`; throws InvalidState on exhaustion
/// like the unpruned walk.
void solve_pruned(const Pattern& pattern, const LtbOptions& options,
                  LtbScratch& scratch, OpScope& scope, obs::Span& span,
                  LtbSolution& out) {
  const auto urank = static_cast<size_t>(pattern.rank());
  const DiffGroups groups = build_diff_groups(pattern, scratch);

  for (Count banks = pattern.size();
       !groups.conflicted && banks <= options.max_banks; ++banks) {
    // One span per candidate N: the pruned alpha walk under each keeps the
    // exponential-vs-O(m^2) gap of Table 1 visible on a trace timeline.
    obs::Span candidate("ltb.candidate");
    scratch.alpha.assign(urank, 0);
    Dfs dfs;
    dfs.groups = &groups;
    dfs.banks = banks;
    dfs.alpha = scratch.alpha.data();
    const bool found = dfs.search(0);
    dfs.flush_charges();
    out.vectors_tried += dfs.leaves;
    candidate.arg("N", banks)
        .arg("vectors_tried", dfs.leaves)
        .arg("found", Count{found});
    if (found) {
      finish_solution(banks, scratch.alpha, scope, span, out);
      return;
    }
  }
  throw InvalidState("ltb_solve: no conflict-free transform within max_banks");
}

}  // namespace

void ltb_solve_into(const Pattern& pattern, const LtbOptions& options,
                    LtbScratch& scratch, LtbSolution& out) {
  MEMPART_REQUIRE(options.max_banks >= pattern.size(),
                  "ltb_solve: max_banks below pattern size");
  obs::Span span("ltb.solve");
  span.arg("pattern", pattern.name()).arg("m", pattern.size());
  obs::LatencyTimer timer("ltb.alpha_search.ns");

  OpScope scope;
  out.num_banks = 0;
  out.vectors_tried = 0;
  if (options.prune) {
    solve_pruned(pattern, options, scratch, scope, span, out);
    return;
  }

  std::vector<Count>& bank_scratch = scratch.bank_scratch;
  for (Count banks = pattern.size(); banks <= options.max_banks; ++banks) {
    // One span per candidate N: the N^n alpha enumeration under each makes
    // the exponential-vs-O(m^2) gap of Table 1 visible on a trace timeline.
    obs::Span candidate("ltb.candidate");
    const Count vectors_before = out.vectors_tried;
    scratch.alpha.assign(static_cast<size_t>(pattern.rank()), 0);
    bool found = false;
    do {
      ++out.vectors_tried;
      if (candidate_conflict_free(pattern, scratch.alpha, banks,
                                  bank_scratch)) {
        found = true;
        break;
      }
    } while (next_vector(scratch.alpha, banks));
    candidate.arg("N", banks)
        .arg("vectors_tried", out.vectors_tried - vectors_before)
        .arg("found", Count{found});
    if (found) {
      finish_solution(banks, scratch.alpha, scope, span, out);
      return;
    }
  }
  throw InvalidState("ltb_solve: no conflict-free transform within max_banks");
}

LtbSolution ltb_solve(const Pattern& pattern, const LtbOptions& options,
                      LtbScratch& scratch) {
  LtbSolution solution{.num_banks = 0,
                       .transform = LinearTransform({1}),
                       .vectors_tried = 0,
                       .ops = {}};
  ltb_solve_into(pattern, options, scratch, solution);
  return solution;
}

LtbSolution ltb_solve(const Pattern& pattern, const LtbOptions& options) {
  LtbScratch scratch;
  return ltb_solve(pattern, options, scratch);
}

bool ltb_conflict_free(const Pattern& pattern, const LinearTransform& alpha,
                       Count banks) {
  MEMPART_REQUIRE(banks >= 1, "ltb_conflict_free: banks must be >= 1");
  MEMPART_REQUIRE(alpha.rank() == pattern.rank(),
                  "ltb_conflict_free: rank mismatch");
  std::vector<Count> scratch;
  return candidate_conflict_free(pattern, alpha.alpha(), banks, scratch);
}

}  // namespace mempart::baseline
