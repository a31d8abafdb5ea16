// The benchmark's own arithmetic: percentiles, failure accounting,
// throughput, and an independent re-derivation of a partitioning answer.
//
// Nothing here calls into mempart: answers are checked against plain
// modular arithmetic written from the paper's definitions, so a solver
// defect cannot hide behind a shared helper. arith_test.cpp pins every
// function below.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// the smallest rank r with r / n >= p / 100.
inline std::int64_t nearest_rank(std::int64_t n, double p) {
  const auto rank = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(rank, 1, n);
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
template <typename T>
double percentile(const std::vector<T>& sorted, double p) {
  return static_cast<double>(
      sorted[static_cast<size_t>(nearest_rank(
                 static_cast<std::int64_t>(sorted.size()), p) - 1)]);
}

/// Samples strictly beyond the nearest-rank percentile `p`.
inline std::int64_t samples_beyond(std::int64_t n, double p) {
  return n - nearest_rank(n, p);
}

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr std::int64_t kMinTail = 10;

/// Per-run failure accounting; every attempted op lands in exactly one of
/// ok / error / shed / unanswered, and an ok answer may still be wrong.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t shed = 0;
  std::int64_t wrong = 0;  ///< ok answers that failed verification

  [[nodiscard]] std::int64_t unanswered() const {
    return attempted - ok - errors - shed;
  }
  [[nodiscard]] std::int64_t failed() const {
    return errors + shed + unanswered() + wrong;
  }
  [[nodiscard]] double failed_pct() const {
    return attempted == 0 ? 100.0
                          : 100.0 * static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// Completed ops per second of timed wall time. Only completions count, so
/// a run that loses responses reads lower than one that answers them all.
inline double throughput(std::int64_t completed, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
}

/// One partitioning answer as a client sees it.
struct Answer {
  std::vector<std::int64_t> alpha;
  std::int64_t num_banks = 0;
  std::int64_t delta_ii = 0;
  std::int64_t fold_factor = 1;
  std::vector<std::int64_t> pattern_banks;
};

inline std::int64_t mod(std::int64_t a, std::int64_t n) {
  const std::int64_t r = a % n;
  return r < 0 ? r + n : r;
}

/// z(i) = alpha . (offset_i - min), the transformed values the answer's
/// banks are residues of.
inline std::vector<std::int64_t> transformed(
    const std::vector<std::vector<std::int64_t>>& offsets,
    const std::vector<std::int64_t>& alpha) {
  const size_t rank = alpha.size();
  std::vector<std::int64_t> lo(rank, INT64_MAX);
  for (const auto& o : offsets) {
    for (size_t d = 0; d < rank; ++d) lo[d] = std::min(lo[d], o[d]);
  }
  std::vector<std::int64_t> z;
  z.reserve(offsets.size());
  for (const auto& o : offsets) {
    std::int64_t v = 0;
    for (size_t d = 0; d < rank; ++d) v += alpha[d] * (o[d] - lo[d]);
    z.push_back(v);
  }
  return z;
}

/// Smallest N >= |z| under which all z are distinct residues (Algorithm 1's
/// N_f, by exhaustive search rather than the solver's difference sieve).
/// Requires pairwise distinct z, else no N exists.
inline std::int64_t min_conflict_free_banks(const std::vector<std::int64_t>& z) {
  std::vector<std::int64_t> seen;
  for (auto n = static_cast<std::int64_t>(z.size());; ++n) {
    seen.assign(static_cast<size_t>(n), -1);
    bool distinct = true;
    for (size_t i = 0; i < z.size() && distinct; ++i) {
      std::int64_t& slot = seen[static_cast<size_t>(mod(z[i], n))];
      distinct = slot < 0;
      slot = static_cast<std::int64_t>(i);
    }
    if (distinct) return n;
  }
}

/// Largest number of pattern elements sharing one bank.
inline std::int64_t max_multiplicity(const std::vector<std::int64_t>& banks,
                                     std::int64_t num_banks) {
  std::vector<std::int64_t> load(static_cast<size_t>(num_banks), 0);
  std::int64_t worst = 0;
  for (const std::int64_t b : banks) {
    worst = std::max(worst, ++load[static_cast<size_t>(b)]);
  }
  return worst;
}

/// Re-derives an answer for `offsets` under bank cap `max_banks` (0 = none)
/// and returns "" when it holds, else what is wrong. Checks: alpha rank and
/// injectivity; N_f minimality when the cap allows it; banks =
/// (z mod N_f) mod N on a fold, z mod N otherwise; and max multiplicity - 1
/// == delta_ii (a bound, <=, on a fold, whose delta_P the solver states as
/// F - 1).
inline std::string check_answer(
    const std::vector<std::vector<std::int64_t>>& offsets,
    std::int64_t max_banks, const Answer& a) {
  std::ostringstream why;
  if (offsets.empty() || a.alpha.size() != offsets.front().size()) {
    return "alpha rank differs from the pattern rank";
  }
  if (a.pattern_banks.size() != offsets.size()) {
    return "pattern_banks has the wrong length";
  }
  if (a.num_banks < 1 || a.fold_factor < 1) return "non-positive bank count";
  const std::vector<std::int64_t> z = transformed(offsets, a.alpha);
  std::vector<std::int64_t> sorted = z;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "alpha maps two offsets to one address";
  }
  const std::int64_t nf = min_conflict_free_banks(z);
  if (max_banks == 0 || nf <= max_banks) {
    if (a.num_banks != nf || a.fold_factor != 1 || a.delta_ii != 0) {
      why << "expected the conflict-free N_f = " << nf << ", got N = "
          << a.num_banks << " F = " << a.fold_factor
          << " delta = " << a.delta_ii;
      return why.str();
    }
  } else if (a.num_banks > max_banks) {
    why << "N = " << a.num_banks << " exceeds N_max = " << max_banks;
    return why.str();
  }
  const bool folded = a.fold_factor > 1;
  for (size_t i = 0; i < z.size(); ++i) {
    std::int64_t bank = mod(z[i], folded ? nf : a.num_banks);
    if (folded) bank = mod(bank, a.num_banks);
    if (bank != a.pattern_banks[i]) {
      why << "offset " << i << ": bank " << a.pattern_banks[i]
          << " but alpha gives " << bank;
      return why.str();
    }
  }
  const std::int64_t delta = max_multiplicity(a.pattern_banks, a.num_banks) - 1;
  if (folded ? delta > a.delta_ii : delta != a.delta_ii) {
    why << "banks collide " << delta << " deep but delta_ii = " << a.delta_ii;
    return why.str();
  }
  return "";
}

}  // namespace perfbench
