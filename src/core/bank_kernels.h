// Tier-dispatched kernels behind minimize_banks (Algorithm 1).
//
// The cold-solve hot loops — the O(m^2) pairwise |z(i)-z(j)| scan, the
// multiple-of-N probe over the packed difference bitset, and the
// divisibility probe over the sorted fallback list — live here as a table
// of function pointers selected once per solve from the active
// mempart::simd tier. Each kernel is written once as a template over a
// lane wrapper (common/simd.h) and instantiated per tier in its own
// translation unit — bank_kernels_base.cpp for scalar,
// bank_kernels_avx2.cpp compiled with -mavx2 — mirroring the SoA fast
// path (sim/soa_kernels.h), so AVX2 instructions never leak into code a
// pre-AVX2 CPU could reach.
#pragma once

#include <cstdint>

#include "common/simd.h"
#include "common/types.h"

namespace mempart::bank {

/// One tier's kernel table.
struct Kernels {
  /// out[j] = |base - src[j]| for j in [0, count). No per-pair overflow
  /// checks: the caller bounds max(z)-min(z) with abs_diff_checked before
  /// the pair pass, and every pairwise difference is <= that spread.
  void (*abs_diff_row)(Address base, const Address* src, Count count,
                       std::int64_t* out) = nullptr;

  /// True iff some multiple k*step with k >= 2 and k*step <= max_value has
  /// its bit set in the packed existence bitset (bit d of word d/64 means
  /// "difference d observed"). The k = 1 probe is the caller's own-bit
  /// prefilter. *probes is incremented by the number of multiples examined
  /// (early exit counts the whole vector step it stopped in).
  bool (*table_has_multiple)(const std::uint64_t* bits, Count max_value,
                             Count step, Count* probes) = nullptr;

  /// True iff any of diffs[0..count) (all > 0) is divisible by divisor
  /// (>= 2). Uses the modular-inverse divisibility test — x % d == 0 for
  /// d = 2^s * t (t odd) iff the low s bits of x are clear and
  /// (x >> s) * inv(t) <=u floor((2^64-1)/t) — so the probe is two
  /// multiplies and two compares per lane, no division. *probes is
  /// incremented by the number of differences examined.
  bool (*any_divisible)(const std::int64_t* diffs, Count count, Count divisor,
                        Count* probes) = nullptr;
};

/// The kernel table for `tier`; scalar when this binary lacks the AVX2
/// instantiation.
const Kernels& kernels_for(simd::Tier tier);

/// Implemented only in bank_kernels_avx2.cpp (x86-64 builds).
const Kernels& avx2_kernels();

}  // namespace mempart::bank
