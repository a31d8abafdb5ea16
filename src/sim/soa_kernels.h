// Tier-dispatched SoA kernels behind AccessPlan's block walk.
//
// AccessPlan::for_each_row_block generates one tap-major plane of banks
// (and optionally offsets) per tap per row; the inner loops live here as a
// table of function pointers selected once per walk from the active
// mempart::simd tier. Each kernel is written once as a template over a lane
// wrapper (common/simd.h) and instantiated per tier in its own translation
// unit — soa_kernels_base.cpp for scalar, soa_kernels_avx2.cpp compiled
// with -mavx2 — so AVX2 instructions never leak into code paths a pre-AVX2
// CPU could reach.
//
// The lane-parallel recurrence: the scalar fast path advances
// (vmod, bank, xnew) by one innermost step via add-and-conditional-
// subtract. The same invariant holds for ANY fixed increment — in
// particular i*inc_v (lane initialisation) and W*inc_v (the vector stride)
// — because euclid_mod(k*inc_v, span) < span and span is a multiple of N,
// so one conditional subtract per update still suffices
// (docs/PERFORMANCE.md derives it).
#pragma once

#include <cstdint>

#include "common/simd.h"
#include "common/types.h"

namespace mempart::sim::soa {

/// Inputs of one tap's fast-prefix generation over one row. All increments
/// are pre-reduced for the kernel's lane width W: inc_* advance a lane by W
/// innermost steps, lane_* hold the i-step deltas that spread the row-start
/// scalar state (vmod0, bank0, xnew0) across the W lanes.
struct LinearRowArgs {
  Count groups = 0;  ///< fast-prefix groups to emit
  Count span = 1;
  Count modulus = 1;
  Count slices = 0;
  Count inc_vmod = 0;
  Count inc_bank = 0;
  Count inc_q = 0;
  const Count* lane_vmod = nullptr;  ///< [W]
  const Count* lane_bank = nullptr;  ///< [W]
  const Count* lane_q = nullptr;     ///< [W]
  Count vmod0 = 0;
  Count bank0 = 0;
  Count xnew0 = 0;
  Address off_base = 0;  ///< folded into the offset lanes up front
};

/// Inputs of the single-bank (kFlat) offset row: offsets[g] = base + g*inc.
struct FlatRowArgs {
  Count groups = 0;
  Address base = 0;
  Address inc = 0;
};

/// Raw-bank fold tables (kFolded): banks[j] <- fold_bank[banks[j]] after
/// offsets[j] += fold_offset[banks[j]].
struct FoldArgs {
  Count count = 0;
  const Count* fold_bank = nullptr;
  const Address* fold_offset = nullptr;
};

/// One tier's kernel table.
struct Kernels {
  Count lanes = 1;  ///< 1 (scalar) or simd::kMaxLanes (AVX2)
  /// Emits `args.groups` banks (and offsets when non-null) for one tap row.
  void (*linear_row)(const LinearRowArgs& args, std::int64_t* banks,
                     std::int64_t* offsets) = nullptr;
  /// Emits the linear offset row of the flat map.
  void (*flat_row)(const FlatRowArgs& args, std::int64_t* offsets) = nullptr;
  /// Applies the fold tables in place over one tap row.
  void (*fold_pass)(const FoldArgs& args, std::int64_t* banks,
                    std::int64_t* offsets) = nullptr;
  /// Bank-occupancy conflict test over a whole tap-major block (N <= 64):
  /// sets collided[g] to 1 when two taps of group g share a bank, 0
  /// otherwise, and returns the number of collided groups. Range validation
  /// is fused into the same pass (two extra vector ops per load): *in_range
  /// reports whether every bank lay in [0, num_banks). Out-of-range lanes
  /// shift to 0 rather than invoking UB, so the caller may assert on
  /// *in_range after the call and before trusting `collided`.
  Count (*find_collisions)(const std::int64_t* banks, Count taps, Count groups,
                           std::int64_t num_banks, unsigned char* collided,
                           bool* in_range) = nullptr;
};

/// The kernel table for `tier`; scalar when this binary lacks the AVX2
/// instantiation.
const Kernels& kernels_for(simd::Tier tier);

/// Implemented only in soa_kernels_avx2.cpp (x86-64 builds).
const Kernels& avx2_kernels();

}  // namespace mempart::sim::soa
