#include "core/bank_constraint.h"

#include <algorithm>

#include "common/errors.h"
#include "common/math_util.h"
#include "common/op_counter.h"
#include "core/delta_ii.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart {

ConstrainedBanks constrain_fast(Count nf, Count nmax) {
  MEMPART_REQUIRE(nf >= 1, "constrain_fast: nf must be >= 1");
  MEMPART_REQUIRE(nmax >= 1, "constrain_fast: nmax must be >= 1");
  ConstrainedBanks out;
  out.strategy = ConstraintStrategy::kFastFold;
  if (nf <= nmax) {
    out.num_banks = nf;
    out.fold_factor = 1;
    out.delta_ii = 0;
    return out;
  }
  // F = ceil(Nf / Nmax); Nc = ceil(Nf / F). Two divisions.
  out.fold_factor = ceil_div(nf, nmax);
  out.num_banks = ceil_div(nf, out.fold_factor);
  OpCounter::charge(OpKind::kDiv, 2);
  // Each folded bank merges at most F original conflict-free banks, so at
  // most F of the m accesses collide per folded bank.
  out.delta_ii = out.fold_factor - 1;
  return out;
}

ConstrainedBanks constrain_same_size(std::span<const Address> z, Count nmax) {
  MEMPART_REQUIRE(nmax >= 1, "constrain_same_size: nmax must be >= 1");
  ConstrainedBanks out;
  out.strategy = ConstraintStrategy::kSameSize;
  out.fold_factor = 1;
  out.sweep = delta_sweep(z, nmax);
  const auto best = std::min_element(out.sweep.begin(), out.sweep.end());
  out.num_banks = static_cast<Count>(best - out.sweep.begin()) + 1;
  out.delta_ii = *best;
  return out;
}

std::vector<Count> delta_sweep(std::span<const Address> z, Count nmax) {
  MEMPART_REQUIRE(nmax >= 1, "delta_sweep: nmax must be >= 1");
  obs::Span span("bank_constraint.delta_sweep");
  span.arg("nmax", nmax);
  std::vector<Count> sweep;
  sweep.reserve(static_cast<size_t>(nmax));
  for (Count n = 1; n <= nmax; ++n) {
    const Count delta = delta_ii(z, n);
    obs::observe("constrain.delta_per_candidate", delta);
    sweep.push_back(delta);
  }
  return sweep;
}

}  // namespace mempart
