#include "sim/access_plan.h"

#include <algorithm>
#include <utility>

#include "common/errors.h"
#include "common/math_util.h"
#include "sim/soa_kernels.h"

namespace mempart::sim {
namespace {

/// Row-major strides over `extents` restricted to the leading dimensions
/// (the innermost stride is 0 so a plain dot product yields leading_flat).
std::vector<Address> leading_strides(const std::vector<Count>& extents) {
  std::vector<Address> strides(extents.size(), 0);
  Address stride = 1;
  for (size_t d = extents.size() - 1; d-- > 0;) {
    strides[d] = stride;
    stride *= static_cast<Address>(extents[d]);
  }
  return strides;
}

Count trip_count(const PlanLoop& loop) {
  if (loop.upper < loop.lower) return 0;
  return (loop.upper - loop.lower) / loop.step + 1;
}

}  // namespace

AccessPlan::AccessPlan(const AddressMap& map, const Pattern& reads,
                       std::vector<PlanLoop> domain)
    : map_(&map), domain_(std::move(domain)) {
  MEMPART_REQUIRE(!domain_.empty(), "AccessPlan: domain must be non-empty");
  MEMPART_REQUIRE(static_cast<int>(domain_.size()) ==
                      map.array_shape().rank(),
                  "AccessPlan: domain/array rank mismatch");
  MEMPART_REQUIRE(reads.rank() == map.array_shape().rank(),
                  "AccessPlan: pattern/array rank mismatch");
  for (const PlanLoop& loop : domain_) {
    MEMPART_REQUIRE(loop.step >= 1, "AccessPlan: loop step must be >= 1");
  }
  compile(reads);
}

bool AccessPlan::supports(const AddressMap& map) {
  return dynamic_cast<const CoreAddressMap*>(&map) != nullptr ||
         dynamic_cast<const LtbAddressMap*>(&map) != nullptr ||
         dynamic_cast<const FlatAddressMap*>(&map) != nullptr;
}

bool AccessPlan::compiled() const { return kind_ != Kind::kGeneric; }

Count AccessPlan::groups_per_row() const { return trip_count(domain_.back()); }

Count AccessPlan::total_groups() const {
  Count total = 1;
  for (const PlanLoop& loop : domain_) {
    total = checked_mul(total, trip_count(loop));
  }
  return total;
}

void AccessPlan::compile(const Pattern& reads) {
  const NdShape& shape = map_->array_shape();
  const int n = shape.rank();
  const Coord inner_step = domain_.back().step;

  taps_.clear();
  taps_.reserve(static_cast<size_t>(reads.size()));
  for (const NdIndex& delta : reads.offsets()) {
    Tap tap;
    tap.delta = delta;
    tap.inner_delta = delta[static_cast<size_t>(n - 1)];
    taps_.push_back(std::move(tap));
  }

  const auto finish_linear = [&](const LinearTransform& transform,
                                 const std::vector<Count>& lead_extents,
                                 Count modulus, Count slices) {
    alpha_ = transform.alpha();
    lead_stride_ = leading_strides(lead_extents);
    modulus_ = modulus;
    slices_ = slices;
    // span must stay positive for the row-start euclid_mod even when the
    // compact body is empty (slices == 0: every element is a tail element
    // and takes the oracle path, so the incremental state is never read).
    span_ = slices_ > 0 ? checked_mul(slices_, modulus_) : modulus_;
    inc_v_ = alpha_[static_cast<size_t>(n - 1)] * inner_step;
    inc_vmod_ = euclid_mod(inc_v_, span_);
    inc_bank_ = euclid_mod(inc_v_, modulus_);
    inc_q_ = inc_vmod_ / modulus_;
    // SIMD stride tables: the scalar recurrence invariant holds for any
    // fixed increment (span is a multiple of N), so a W-lane kernel steps
    // each lane by W*inc_v while lane i starts i*inc_v ahead of the row
    // state. Precompute the reduced increments for both dispatch widths.
    for (auto [table, width] : {std::pair{&scalar_width_, Count{1}},
                                std::pair{&wide_width_, simd::kMaxLanes}}) {
      const Address inc_w = checked_mul(inc_v_, width);
      table->inc_vmod = euclid_mod(inc_w, span_);
      table->inc_bank = euclid_mod(inc_w, modulus_);
      table->inc_q = table->inc_vmod / modulus_;
      for (Count lane = 0; lane < width; ++lane) {
        const Address lane_v = checked_mul(inc_v_, lane);
        const size_t slot = static_cast<size_t>(lane);
        table->lane_vmod[slot] = euclid_mod(lane_v, span_);
        table->lane_bank[slot] = euclid_mod(lane_v, modulus_);
        table->lane_q[slot] = table->lane_vmod[slot] / modulus_;
      }
    }
    for (Tap& tap : taps_) {
      Address v = 0;
      Address lead = 0;
      for (size_t d = 0; d < static_cast<size_t>(n); ++d) {
        v += alpha_[d] * tap.delta[d];
        lead += lead_stride_[d] * tap.delta[d];
      }
      tap.v_bias = v;
      tap.lead_bias = lead;
    }
  };

  if (const auto* core = dynamic_cast<const CoreAddressMap*>(map_)) {
    const BankMapping& mapping = core->mapping();
    const Count modulus = mapping.conflict_modulus();
    const Count innermost = shape.extent(n - 1);
    if (mapping.folded()) {
      kind_ = Kind::kFolded;
      finish_linear(mapping.transform(), shape.extents(), modulus,
                    mapping.padded_slices());
      Count leading_volume = 1;
      for (int d = 0; d + 1 < n; ++d) {
        leading_volume = checked_mul(leading_volume, shape.extent(d));
      }
      const Count segment = checked_mul(mapping.padded_slices(), leading_volume);
      const Count folded_banks = mapping.num_banks();
      fold_bank_.resize(static_cast<size_t>(modulus));
      fold_offset_.resize(static_cast<size_t>(modulus));
      for (Count raw = 0; raw < modulus; ++raw) {
        fold_bank_[static_cast<size_t>(raw)] = raw % folded_banks;
        fold_offset_[static_cast<size_t>(raw)] = (raw / folded_banks) * segment;
      }
    } else if (mapping.tail_policy() == TailPolicy::kCompact) {
      kind_ = Kind::kCompact;
      const Count body_slices = innermost / modulus;
      finish_linear(mapping.transform(), shape.extents(), modulus, body_slices);
      tail_start_ = body_slices * modulus;
    } else {
      kind_ = Kind::kModSlice;
      finish_linear(mapping.transform(), shape.extents(), modulus,
                    mapping.padded_slices());
    }
    return;
  }
  if (const auto* ltb = dynamic_cast<const LtbAddressMap*>(map_)) {
    kind_ = Kind::kModSlice;
    // LTB pads every dimension: leading-flat strides come from the padded
    // extents while the cyclic innermost remap uses K' = w'_{n-1} / N.
    finish_linear(ltb->mapping().transform(),
                  ltb->mapping().padded_shape().extents(),
                  ltb->mapping().num_banks(), ltb->mapping().padded_slices());
    return;
  }
  if (dynamic_cast<const FlatAddressMap*>(map_) != nullptr) {
    kind_ = Kind::kFlat;
    flat_stride_.assign(static_cast<size_t>(n), 0);
    Address stride = 1;
    for (int d = n - 1; d >= 0; --d) {
      flat_stride_[static_cast<size_t>(d)] = stride;
      stride *= static_cast<Address>(shape.extent(d));
    }
    flat_inc_ = flat_stride_.back() * inner_step;
    for (Tap& tap : taps_) {
      Address bias = 0;
      for (size_t d = 0; d < static_cast<size_t>(n); ++d) {
        bias += flat_stride_[d] * tap.delta[d];
      }
      tap.v_bias = bias;
    }
    return;
  }
  kind_ = Kind::kGeneric;
}

template <bool WithOffsets>
void AccessPlan::walk_block(const RowBlockVisitor& visit) const {
  const int n = static_cast<int>(domain_.size());
  const size_t m = taps_.size();
  const Count groups = groups_per_row();
  const Coord inner_step = domain_.back().step;
  const size_t plane = static_cast<size_t>(groups);
  std::vector<Count> banks(m * plane, 0);
  std::vector<Address> offsets(WithOffsets ? banks.size() : 0);

  RowBlock block;
  block.taps = static_cast<Count>(m);
  block.groups = groups;
  block.banks = std::span<const Count>(banks);
  if constexpr (WithOffsets) {
    block.offsets = std::span<const Address>(offsets);
  }

  NdIndex row(static_cast<size_t>(n));
  for (int d = 0; d < n; ++d) {
    if (trip_count(domain_[static_cast<size_t>(d)]) == 0) return;
    row[static_cast<size_t>(d)] = domain_[static_cast<size_t>(d)].lower;
  }

  const soa::Kernels& kernels = soa::kernels_for(simd::active_tier());
  const WidthTable& table = kernels.lanes == 1 ? scalar_width_ : wide_width_;

  NdIndex x(static_cast<size_t>(n));  // scratch for oracle calls
  for (;;) {
    if (kind_ == Kind::kGeneric) {
      // Per-access virtual fallback, emitted straight into the SoA layout.
      for (size_t t = 0; t < m; ++t) {
        x = add(row, taps_[t].delta);
        Count* bank_plane = banks.data() + t * plane;
        Address* off_plane = WithOffsets ? offsets.data() + t * plane : nullptr;
        for (Count g = 0; g < groups; ++g) {
          bank_plane[g] = map_->bank_of(x);
          if constexpr (WithOffsets) off_plane[g] = map_->offset_of(x);
          x[static_cast<size_t>(n - 1)] += inner_step;
        }
      }
    } else if (kind_ == Kind::kFlat) {
      // Single bank: the bank planes stay zero; only offsets advance.
      if constexpr (WithOffsets) {
        Address base = 0;
        for (size_t d = 0; d < static_cast<size_t>(n); ++d) {
          base += flat_stride_[d] * row[d];
        }
        for (size_t t = 0; t < m; ++t) {
          soa::FlatRowArgs args;
          args.groups = groups;
          args.base = base + taps_[t].v_bias;
          args.inc = flat_inc_;
          kernels.flat_row(args, offsets.data() + t * plane);
        }
      }
    } else {
      Address v_base = 0;
      Address lead_base = 0;
      for (size_t d = 0; d < static_cast<size_t>(n); ++d) {
        v_base += alpha_[d] * row[d];
        lead_base += lead_stride_[d] * row[d];
      }
      for (size_t t = 0; t < m; ++t) {
        const Tap& tap = taps_[t];
        Count* bank_plane = banks.data() + t * plane;
        Address* off_plane = WithOffsets ? offsets.data() + t * plane : nullptr;

        Count fast_groups = groups;
        if (kind_ == Kind::kCompact) {
          const Coord e0 = row[static_cast<size_t>(n - 1)] + tap.inner_delta;
          if (e0 >= tail_start_) {
            fast_groups = 0;
          } else {
            fast_groups =
                std::min<Count>(groups, ceil_div(tail_start_ - e0, inner_step));
          }
        }
        if (fast_groups > 0) {
          const Count vmod = euclid_mod(v_base + tap.v_bias, span_);
          soa::LinearRowArgs args;
          args.groups = fast_groups;
          args.span = span_;
          args.modulus = modulus_;
          args.slices = slices_;
          args.inc_vmod = table.inc_vmod;
          args.inc_bank = table.inc_bank;
          args.inc_q = table.inc_q;
          args.lane_vmod = table.lane_vmod.data();
          args.lane_bank = table.lane_bank.data();
          args.lane_q = table.lane_q.data();
          args.vmod0 = vmod;
          args.bank0 = vmod % modulus_;
          args.xnew0 = vmod / modulus_;
          args.off_base = (lead_base + tap.lead_bias) * slices_;
          kernels.linear_row(args, bank_plane, off_plane);
          if (kind_ == Kind::kFolded) {
            soa::FoldArgs fold;
            fold.count = fast_groups;
            fold.fold_bank = fold_bank_.data();
            fold.fold_offset = fold_offset_.data();
            kernels.fold_pass(fold, bank_plane, off_plane);
          }
        }
        // Compact-tail groups: the direct closed form reproduces the
        // incremental bank exactly (both are v mod N); offsets need the
        // mapping's per-bank tail rank, so they stay oracle calls.
        for (Count g = fast_groups; g < groups; ++g) {
          const Address v = v_base + tap.v_bias + inc_v_ * g;
          bank_plane[g] = euclid_mod(v, modulus_);
          if constexpr (WithOffsets) {
            x = add(row, tap.delta);
            x[static_cast<size_t>(n - 1)] += g * inner_step;
            off_plane[g] = map_->offset_of(x);
          }
        }
      }
    }
    visit(row, block);
    int d = n - 2;
    for (; d >= 0; --d) {
      const PlanLoop& loop = domain_[static_cast<size_t>(d)];
      Coord& coord = row[static_cast<size_t>(d)];
      coord += loop.step;
      if (coord <= loop.upper) break;
      coord = loop.lower;
    }
    if (d < 0) return;
  }
}

void AccessPlan::for_each_row_block(const RowBlockVisitor& visit) const {
  walk_block<true>(visit);
}

void AccessPlan::for_each_row_block_banks(const RowBlockVisitor& visit) const {
  walk_block<false>(visit);
}

}  // namespace mempart::sim
