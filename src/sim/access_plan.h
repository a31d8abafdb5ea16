// Compiled, devirtualized address plans for loop-nest replay.
//
// The paper's pitch is that B(x) = (alpha . x) mod N is cheap enough to
// evaluate every cycle, yet the reference simulator path pays, per access,
// a virtual AddressMap call, an n-term dot product, a Euclidean modulo
// (hardware division) and op-counter bookkeeping — and reads_at() allocates
// a fresh index vector per iteration on top. AccessPlan removes all of it
// by compiling the (map, pattern, domain) triple once:
//
//   * per tap i the constant alpha . Delta(i) is folded into a row-start
//     bias, so a row needs ONE dot product per tap, not one per access;
//   * walking the innermost dimension, v = alpha . x changes by the fixed
//     increment alpha_{n-1} * step, so bank and intra-bank offset advance
//     with add-and-conditional-subtract updates only:
//
//         bank += inc_bank;         if (bank >= N)    bank -= N;
//         vmod += inc_vmod;         if (vmod >= K'N) { vmod -= K'N; wrap; }
//         x_new += inc_q + carry;   if (wrap)         x_new -= K';
//
//     which keeps bank == vmod mod N and x_new == vmod / N without any
//     division (docs/PERFORMANCE.md derives the invariant);
//   * folded mappings replace the second mod/div pair by two precomputed
//     lookup tables over the N_f raw banks.
//
// The plan recognises CoreAddressMap (padded, compact-tail and folded),
// LtbAddressMap and FlatAddressMap; anything else falls back to a generic
// per-access virtual walk so callers never need two code paths. The
// reference AddressMap path stays in the tree as the oracle — the property
// tests and the differential harness check every bank and offset of the
// block walk against bank_of / offset_of, and bench_fastpath asserts
// bit-identical cycle statistics between the two.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "common/nd.h"
#include "common/simd.h"
#include "common/types.h"
#include "pattern/pattern.h"
#include "sim/address_map.h"

namespace mempart::sim {

/// One level of the replayed iteration domain, outermost first — the same
/// triple as loopnest::Loop, mirrored here so sim does not depend on the
/// loopnest library (which depends on sim).
struct PlanLoop {
  Coord lower = 0;
  Coord upper = 0;  ///< inclusive
  Coord step = 1;
};

/// A pattern replay compiled against one AddressMap.
class AccessPlan {
 public:
  /// `map` must outlive the plan. `domain` must have the map's rank and
  /// every domain position p must keep p + Delta inside the array for all
  /// pattern offsets Delta (the StencilProgram loop nests guarantee this).
  AccessPlan(const AddressMap& map, const Pattern& reads,
             std::vector<PlanLoop> domain);

  /// True when `map` is a shape the plan compiles to the incremental fast
  /// path (Core / LTB / flat maps); false means the generic fallback.
  [[nodiscard]] static bool supports(const AddressMap& map);

  /// False when this instance runs the generic per-access fallback.
  [[nodiscard]] bool compiled() const;

  [[nodiscard]] Count taps() const { return static_cast<Count>(taps_.size()); }
  [[nodiscard]] Count num_banks() const { return map_->num_banks(); }

  /// Iterations of the innermost loop (groups emitted per row).
  [[nodiscard]] Count groups_per_row() const;

  /// Total iteration count of the domain.
  [[nodiscard]] Count total_groups() const;

  /// One row in structure-of-arrays (tap-major) form: tap t's values for
  /// all groups are contiguous at plane [t * groups, (t + 1) * groups).
  /// The SIMD kernels store whole lane vectors into these planes, and SoA
  /// consumers (issue_batch_soa, the convolve inner loop) read them without
  /// repacking. Spans are only valid inside the visitor callback.
  struct RowBlock {
    Count taps = 0;
    Count groups = 0;
    std::span<const Count> banks;      ///< taps planes of `groups` values
    std::span<const Address> offsets;  ///< same layout; empty in banks-only walks

    [[nodiscard]] std::span<const Count> bank_plane(Count t) const {
      return banks.subspan(static_cast<size_t>(t) * static_cast<size_t>(groups),
                           static_cast<size_t>(groups));
    }
    [[nodiscard]] std::span<const Address> offset_plane(Count t) const {
      return offsets.subspan(
          static_cast<size_t>(t) * static_cast<size_t>(groups),
          static_cast<size_t>(groups));
    }
  };

  using RowBlockVisitor =
      std::function<void(const NdIndex& row_start, const RowBlock& block)>;

  /// Walks the whole domain row by row in SoA form, generating each plane
  /// with the simd::active_tier() kernels. Under every dispatch tier the
  /// banks and offsets equal AddressMap::bank_of / offset_of of each access
  /// — pinned by the differential harness and the AccessPlan /
  /// AccessPlanSimd property tests.
  void for_each_row_block(const RowBlockVisitor& visit) const;

  /// Banks-only SoA walk (offsets span left empty).
  void for_each_row_block_banks(const RowBlockVisitor& visit) const;

 private:
  enum class Kind {
    kModSlice,  ///< Core padded / LTB: offset = leading * K' + (vmod / N)
    kFolded,    ///< kModSlice plus raw-bank fold lookup tables
    kCompact,   ///< kModSlice body plus oracle fallback for tail elements
    kFlat,      ///< single bank, row-major offset (linear in x)
    kGeneric,   ///< per-access virtual AddressMap calls (the oracle)
  };

  /// Per-tap compile-time constants.
  struct Tap {
    NdIndex delta;          ///< the pattern offset itself (generic/tail path)
    Address v_bias = 0;     ///< alpha . Delta
    Address lead_bias = 0;  ///< leading-flat contribution of Delta
    Coord inner_delta = 0;  ///< Delta_{n-1}
  };

  template <bool WithOffsets>
  void walk_block(const RowBlockVisitor& visit) const;

  void compile(const Pattern& reads);

  /// Stride table for one SIMD lane width W (widths 1 and simd::kMaxLanes,
  /// one per dispatch tier, precomputed at compile() time): inc_* advance
  /// a lane by W innermost steps, lane_* spread the row-start state across
  /// the lanes.
  struct WidthTable {
    Count inc_vmod = 0;
    Count inc_bank = 0;
    Count inc_q = 0;
    std::array<Count, simd::kMaxLanes> lane_vmod{};
    std::array<Count, simd::kMaxLanes> lane_bank{};
    std::array<Count, simd::kMaxLanes> lane_q{};
  };

  const AddressMap* map_;
  std::vector<PlanLoop> domain_;
  Kind kind_ = Kind::kGeneric;
  std::vector<Tap> taps_;

  // Linear-address machinery shared by every compiled kind.
  std::vector<Count> alpha_;         ///< transform vector (empty for kFlat)
  std::vector<Address> lead_stride_; ///< per-dim leading-flat strides
  Count modulus_ = 1;                ///< conflict modulus N (N_f when folded)
  Count slices_ = 0;                 ///< K' (padded) or K (compact body)
  Count span_ = 1;                   ///< slices * modulus (1 when unused)
  Count tail_start_ = 0;             ///< first innermost coord of the tail
  // Innermost-step increments (already reduced mod span_ / modulus_).
  Address inc_v_ = 0;
  Count inc_vmod_ = 0;
  Count inc_bank_ = 0;
  Count inc_q_ = 0;
  WidthTable scalar_width_;  ///< W = 1
  WidthTable wide_width_;    ///< W = simd::kMaxLanes
  // Folding tables over the raw bank index in [0, modulus_).
  std::vector<Count> fold_bank_;
  std::vector<Address> fold_offset_;
  // kFlat: full row-major strides and the innermost increment.
  std::vector<Address> flat_stride_;
  Address flat_inc_ = 0;
};

}  // namespace mempart::sim
