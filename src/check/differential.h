// Differential harness: one CheckConfig in, a list of divergences out.
//
// The matrix it cross-checks:
//
//   closed-form solve  vs  brute-force oracle   (delta_P claim, bank range,
//                                                address uniqueness)
//   folded / same-size vs  their delta_P bounds (F-1 bound, sweep value)
//   closed-form        vs  LTB baseline         (exhaustive N is minimal
//                                                over linear transforms, so
//                                                N_ltb <= N_f must hold)
//   sim::AccessPlan    vs  AddressMap           (per-access (bank, offset)
//     block walk           bank_of / offset_of   pairs, every SIMD tier)
//   loopnest::simulate_fast vs loopnest::simulate (bit-for-bit statistics,
//                                                every SIMD tier)
//   storage accounting vs  capacity sums        (total = sum of banks,
//                                                overhead = total - W)
//
// A clean mempart::Error is a legitimate outcome for degenerate or
// overflow-provoking configs and is reported as `clean_reject`, with one
// exception: definitionally invalid inputs (duplicate offsets, zero
// extents) MUST be rejected — accepting them is itself a divergence. An
// InternalError (a failed MEMPART_ASSERT, such as the fast path's bank
// range check) is a divergence of kind "internal-error", and any
// non-mempart exception one of kind "crash".
#pragma once

#include <string>
#include <vector>

#include "check/config.h"

namespace mempart::check {

/// One disagreement between two parties of the matrix.
struct Divergence {
  std::string kind;    ///< stable slug, e.g. "delta-bound", "plan-vs-map"
  std::string detail;  ///< human-readable specifics for triage
};

/// Everything run_config() determined about one configuration.
struct DiffReport {
  bool clean_reject = false;   ///< library rejected the config with an Error
  std::string reject_reason;   ///< what() of that Error
  Count oracle_positions = 0;  ///< anchors the conflict oracle enumerated
  bool exhaustive = false;     ///< oracle enumeration ran (volume in bounds)
  std::vector<Divergence> divergences;

  [[nodiscard]] bool diverged() const { return !divergences.empty(); }
};

/// Volume cap above which the oracle's O(volume) passes are skipped and the
/// config only exercises solver/rejection paths.
inline constexpr Count kExhaustiveVolumeLimit = Count{1} << 16;

/// Runs the full differential matrix over one configuration.
[[nodiscard]] DiffReport run_config(const CheckConfig& config);

}  // namespace mempart::check
