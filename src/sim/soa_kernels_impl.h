// Template bodies of the SoA kernels, shared by every tier's translation
// unit. Included ONLY by soa_kernels_base.cpp and soa_kernels_avx2.cpp;
// each instantiates the templates with its lane wrappers and registers the
// resulting function pointers in a soa::Kernels table.
#pragma once

#include "sim/soa_kernels.h"

namespace mempart::sim::soa {

/// Lane-parallel add-and-conditional-subtract walk of one tap row. Lane i
/// starts at the row state advanced by i innermost steps (precomputed
/// deltas + one conditional subtract, exact because every delta is already
/// in [0, span)); each vector step then advances all lanes by W steps. The
/// final partial vector IS the remainder: lanes 0..r-1 hold the trailing r
/// groups, no scalar recurrence needed.
template <class V>
void linear_row(const LinearRowArgs& a, std::int64_t* banks,
                std::int64_t* offsets) {
  constexpr Count kW = V::kLanes;
  alignas(64) std::int64_t init_vm[kW];
  alignas(64) std::int64_t init_bk[kW];
  alignas(64) std::int64_t init_xn[kW];
  for (Count i = 0; i < kW; ++i) {
    std::int64_t vm = a.vmod0 + a.lane_vmod[i];
    std::int64_t wrap = 0;
    if (vm >= a.span) {
      vm -= a.span;
      wrap = 1;
    }
    std::int64_t bk = a.bank0 + a.lane_bank[i];
    std::int64_t carry = 0;
    if (bk >= a.modulus) {
      bk -= a.modulus;
      carry = 1;
    }
    init_vm[i] = vm;
    init_bk[i] = bk;
    // off_base rides inside the offset lane: the recurrence only ever adds
    // to xnew, so a constant pre-bias commutes with every later update and
    // saves one vector add per store.
    init_xn[i] = a.off_base + a.xnew0 + a.lane_q[i] + carry - wrap * a.slices;
  }
  V vm = V::load(init_vm);
  V bk = V::load(init_bk);
  V xn = V::load(init_xn);
  const V span = V::broadcast(a.span);
  const V modulus = V::broadcast(a.modulus);
  const V inc_vm = V::broadcast(a.inc_vmod);
  const V inc_bk = V::broadcast(a.inc_bank);
  const V inc_q = V::broadcast(a.inc_q);
  const V slices = V::broadcast(a.slices);
  const V one = V::broadcast(1);
  Count g = 0;
  for (; g + kW <= a.groups; g += kW) {
    bk.store(banks + g);
    if (offsets != nullptr) xn.store(offsets + g);
    V t = V::add(vm, inc_vm);
    const V wrap = V::ge0_mask(V::sub(t, span));
    vm = V::sub(t, V::and_(wrap, span));
    t = V::add(bk, inc_bk);
    const V carry = V::ge0_mask(V::sub(t, modulus));
    bk = V::sub(t, V::and_(carry, modulus));
    xn = V::add(xn, inc_q);
    xn = V::add(xn, V::and_(carry, one));
    xn = V::sub(xn, V::and_(wrap, slices));
  }
  const Count rest = a.groups - g;
  if (rest > 0) {
    alignas(64) std::int64_t tail_bk[kW];
    alignas(64) std::int64_t tail_xn[kW];
    bk.store(tail_bk);
    xn.store(tail_xn);
    for (Count i = 0; i < rest; ++i) {
      banks[g + i] = tail_bk[i];
      if (offsets != nullptr) offsets[g + i] = tail_xn[i];
    }
  }
}

template <class V>
void flat_row(const FlatRowArgs& a, std::int64_t* offsets) {
  constexpr Count kW = V::kLanes;
  alignas(64) std::int64_t init[kW];
  for (Count i = 0; i < kW; ++i) init[i] = a.base + i * a.inc;
  V off = V::load(init);
  const V step = V::broadcast(a.inc * kW);
  Count g = 0;
  for (; g + kW <= a.groups; g += kW) {
    off.store(offsets + g);
    off = V::add(off, step);
  }
  const Count rest = a.groups - g;
  if (rest > 0) {
    alignas(64) std::int64_t tail[kW];
    off.store(tail);
    for (Count i = 0; i < rest; ++i) offsets[g + i] = tail[i];
  }
}

template <class V>
void fold_pass(const FoldArgs& a, std::int64_t* banks, std::int64_t* offsets) {
  constexpr Count kW = V::kLanes;
  Count j = 0;
  for (; j + kW <= a.count; j += kW) {
    const V raw = V::load(banks + j);
    if (offsets != nullptr) {
      const V extra = V::gather(a.fold_offset, raw);
      V::add(V::load(offsets + j), extra).store(offsets + j);
    }
    V::gather(a.fold_bank, raw).store(banks + j);
  }
  for (; j < a.count; ++j) {
    const std::int64_t raw = banks[j];
    if (offsets != nullptr) offsets[j] += a.fold_offset[raw];
    banks[j] = a.fold_bank[raw];
  }
}

template <class V>
Count find_collisions(const std::int64_t* banks, Count taps, Count groups,
                      std::int64_t num_banks, unsigned char* collided,
                      bool* in_range) {
  constexpr Count kW = V::kLanes;
  constexpr auto kAllLanes =
      static_cast<std::uint32_t>((std::uint32_t{1} << kW) - 1u);
  // Range validation rides along: b and (num_banks - 1 - b) are both
  // non-negative exactly when b is in [0, num_banks), so an OR-accumulate
  // over every load plus one final sign test covers the whole block.
  const V nm1 = V::broadcast(num_banks - 1);
  V range = V::broadcast(0);
  Count collisions = 0;
  Count g = 0;
  for (; g + kW <= groups; g += kW) {
    V occupancy = V::broadcast(0);
    V collide = V::broadcast(0);
    for (Count t = 0; t < taps; ++t) {
      const V b = V::load(banks + t * groups + g);
      range = V::or_(range, V::or_(b, V::sub(nm1, b)));
      const V bit = V::shl1(b);
      collide = V::or_(collide, V::and_(occupancy, bit));
      occupancy = V::or_(occupancy, bit);
    }
    const std::uint32_t mask = collide.nonzero_mask();
    for (Count i = 0; i < kW; ++i) {
      const unsigned char hit =
          static_cast<unsigned char>((mask >> static_cast<unsigned>(i)) & 1u);
      collided[g + i] = hit;
      collisions += hit;
    }
  }
  std::int64_t range_tail = 0;
  for (; g < groups; ++g) {
    std::uint64_t occupancy = 0;
    std::uint64_t collide = 0;
    for (Count t = 0; t < taps; ++t) {
      const std::int64_t b = banks[t * groups + g];
      range_tail |= b | (num_banks - 1 - b);
      const std::uint64_t bit =
          static_cast<std::uint64_t>(simd::I64x1::shl1({b}).v);
      collide |= occupancy & bit;
      occupancy |= bit;
    }
    const unsigned char hit = collide != 0 ? 1 : 0;
    collided[g] = hit;
    collisions += hit;
  }
  *in_range =
      V::ge0_mask(range).nonzero_mask() == kAllLanes && range_tail >= 0;
  return collisions;
}

template <class V>
constexpr Kernels make_kernels() {
  Kernels kernels;
  kernels.lanes = V::kLanes;
  kernels.linear_row = &linear_row<V>;
  kernels.flat_row = &flat_row<V>;
  kernels.fold_pass = &fold_pass<V>;
  kernels.find_collisions = &find_collisions<V>;
  return kernels;
}

}  // namespace mempart::sim::soa
