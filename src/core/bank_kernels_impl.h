// Template bodies of the bank-search kernels, instantiated per lane type
// by bank_kernels_base.cpp (scalar) / bank_kernels_avx2.cpp. Included only
// by those translation units.
//
// All three kernels share one shape: a vector main loop over V::kLanes
// elements followed by a scalar tail, with the scalar instantiation
// (V = I64x1) degenerating to exactly the tail loop — which is what the
// differential tests and bench_solver compare the wider tiers against.
#pragma once

#include <bit>
#include <cstdint>

#include "core/bank_kernels.h"

namespace mempart::bank {

template <typename V>
void abs_diff_row(Address base, const Address* src, Count count,
                  std::int64_t* out) {
  constexpr Count kW = V::kLanes;
  Count j = 0;
  if constexpr (kW > 1) {
    const V vbase = V::broadcast(base);
    const V ones = V::broadcast(-1);
    for (; j + kW <= count; j += kW) {
      const V d = V::sub(vbase, V::load(src + j));
      // |d| = (d ^ sign) - sign with sign = all-ones where d < 0: the
      // two's-complement negate folds into the same two ops as the copy.
      const V sign = V::xor_(V::ge0_mask(d), ones);
      V::sub(V::xor_(d, sign), sign).store(out + j);
    }
  }
  for (; j < count; ++j) {
    const std::int64_t d = base - src[j];
    out[j] = d < 0 ? -d : d;
  }
}

template <typename V>
bool table_has_multiple(const std::uint64_t* bits, Count max_value, Count step,
                        Count* probes) {
  constexpr Count kW = V::kLanes;
  const auto* words = reinterpret_cast<const std::int64_t*>(bits);
  const Count kmax = max_value / step;  // largest k with k*step in range
  Count examined = 0;
  Count k = 2;
  if constexpr (kW > 1) {
    std::int64_t init[simd::kMaxLanes];
    for (Count j = 0; j < kW; ++j) init[j] = (k + j) * step;
    V idx = V::load(init);
    const V stride = V::broadcast(kW * step);
    const V low6 = V::broadcast(63);
    for (; k + kW - 1 <= kmax; k += kW) {
      const V word = V::gather(words, V::srl(idx, 6));
      const V bit = V::and_(word, V::shl1(V::and_(idx, low6)));
      examined += kW;
      if (bit.nonzero_mask() != 0) {
        *probes += examined;
        return true;
      }
      idx = V::add(idx, stride);
    }
  }
  for (; k <= kmax; ++k) {
    const Count d = k * step;
    ++examined;
    if ((bits[static_cast<std::size_t>(d >> 6)] >>
         (static_cast<std::uint64_t>(d) & 63)) &
        1) {
      *probes += examined;
      return true;
    }
  }
  *probes += examined;
  return false;
}

template <typename V>
bool any_divisible(const std::int64_t* diffs, Count count, Count divisor,
                   Count* probes) {
  const int s = std::countr_zero(static_cast<std::uint64_t>(divisor));
  const std::uint64_t t = static_cast<std::uint64_t>(divisor) >> s;
  // Newton iteration doubles correct low bits each round; t*t ends on at
  // least 3 correct bits (t odd), so 5 rounds cover all 64.
  std::uint64_t inv = t;
  for (int i = 0; i < 5; ++i) inv *= 2 - t * inv;
  const std::uint64_t thresh = ~std::uint64_t{0} / t;
  const std::uint64_t low_mask = (std::uint64_t{1} << s) - 1;
  constexpr Count kW = V::kLanes;
  Count j = 0;
  Count examined = 0;
  if constexpr (kW > 1) {
    const V vinv = V::broadcast(static_cast<std::int64_t>(inv));
    const V vthresh = V::broadcast(static_cast<std::int64_t>(thresh));
    const V vlow = V::broadcast(static_cast<std::int64_t>(low_mask));
    const V zero = V::broadcast(0);
    for (; j + kW <= count; j += kW) {
      const V x = V::load(diffs + j);
      // x <=u 0 is x == 0: the even-part test needs no dedicated eq0 op.
      const V even_ok = V::leu_mask(V::and_(x, vlow), zero);
      const V odd_ok = V::leu_mask(V::mullo(V::srl(x, s), vinv), vthresh);
      examined += kW;
      if (V::and_(even_ok, odd_ok).nonzero_mask() != 0) {
        *probes += examined;
        return true;
      }
    }
  }
  for (; j < count; ++j) {
    const auto x = static_cast<std::uint64_t>(diffs[j]);
    ++examined;
    if ((x & low_mask) == 0 && (x >> s) * inv <= thresh) {
      *probes += examined;
      return true;
    }
  }
  *probes += examined;
  return false;
}

template <typename V>
Kernels make_kernels() {
  Kernels k;
  k.abs_diff_row = &abs_diff_row<V>;
  k.table_has_multiple = &table_has_multiple<V>;
  k.any_divisible = &any_divisible<V>;
  return k;
}

}  // namespace mempart::bank
