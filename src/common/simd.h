// mempart::simd — the repo's only window onto CPU vector instructions.
//
// The SoA fast path (sim/soa_kernels_*.cpp) runs the paper's
// add-and-conditional-subtract recurrence over W loop iterations at once;
// this header supplies (a) the runtime dispatch state — scalar or AVX2,
// detected via cpuid and overridable with the MEMPART_SIMD environment
// variable or set_tier() — and (b) thin int64 lane wrappers (one scalar
// lane, four AVX2 lanes) so the kernels are written once as a template
// over the lane type. Every other target, AArch64 included, runs the
// scalar instantiation.
//
// This is deliberately the ONE file allowed to include vendor intrinsic
// headers; mempart_lint's simd-guard rule flags <immintrin.h> (and friends)
// anywhere else so ISA-specific code cannot leak past the abstraction.
//
// Wrapper contract (both types):
//   * lanes are int64_t, matching Count/Address;
//   * ge0_mask(d) returns all-ones lanes where d >= 0 — the conditional
//     subtract `if (v >= m) v -= m` becomes
//     `d = sub(add(v, inc), m); v = sub(t, and_(ge0_mask(d), m))`;
//   * shl1(c) computes int64{1} << c with the x86 SLLV convention: any
//     count outside [0, 64) yields 0 (never UB), so the conflict-scoring
//     kernel can run ahead of the engine's range assertion;
//   * gather(table, idx) is a table lookup per lane (hardware gather on
//     AVX2) used by the folded-bank pass;
//   * srl(a, count) is a LOGICAL right shift by one uniform count in
//     [0, 64) — bit extraction from the packed difference bitset
//     (core/bank_kernels_impl.h) treats lanes as unsigned words;
//   * mullo(a, b) is the low 64 bits of the unsigned product (AVX2
//     synthesizes it from 32x32 partial products) — the modular-inverse
//     divisibility probe only needs the product mod 2^64;
//   * leu_mask(a, b) returns all-ones lanes where a <= b as UNSIGNED
//     64-bit values (sign-bias + signed compare on AVX2).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"

#if defined(__x86_64__) || defined(_M_X64)
#define MEMPART_SIMD_X86 1
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#endif

namespace mempart::simd {

/// Dispatch tiers, narrowest first. kAvx2 exists only on x86-64 builds and
/// only runs where cpuid reports AVX2; supported_tiers() lists what the
/// running CPU (and the binary) can execute.
enum class Tier { kScalar = 0, kAvx2 = 1 };

/// Supported tiers in ascending lane width (always starts with kScalar).
[[nodiscard]] std::vector<Tier> supported_tiers();

/// The tier the fast path dispatches to. Resolution order: the last
/// set_tier() call, else the MEMPART_SIMD environment variable
/// (scalar|avx2|auto), else the widest supported tier. An avx2 request on
/// a CPU without AVX2 clamps to scalar; unknown env spellings throw
/// InvalidArgument (parse_tier_env).
[[nodiscard]] Tier active_tier();

/// Programmatic override (tests, fuzzing, benches). Clamped like the env
/// variable; returns the tier actually installed.
Tier set_tier(Tier tier);

/// Lower-case tier name ("scalar", "avx2").
[[nodiscard]] std::string_view tier_name(Tier tier);

/// Strictly parses a MEMPART_SIMD value: returns the named tier, nullopt
/// for "auto", and throws InvalidArgument (listing the accepted spellings)
/// for anything else — a typo must not silently change the dispatch tier.
[[nodiscard]] std::optional<Tier> parse_tier_env(std::string_view value);

/// Widest lane count any tier uses; per-lane stride tables are sized by it.
inline constexpr Count kMaxLanes = 4;

/// RAII tier override for tests and the differential harness: installs
/// `tier` (clamped) and restores the previous active tier on destruction.
class TierOverride {
 public:
  explicit TierOverride(Tier tier) : previous_(active_tier()) {
    set_tier(tier);
  }
  ~TierOverride() { set_tier(previous_); }
  TierOverride(const TierOverride&) = delete;
  TierOverride& operator=(const TierOverride&) = delete;

 private:
  Tier previous_;
};

// ---------------------------------------------------------------------------
// Lane wrappers
// ---------------------------------------------------------------------------

/// Scalar "vector" of one int64 lane; the template baseline every kernel
/// falls back to and the reference the AVX2 wrapper is tested against.
struct I64x1 {
  static constexpr Count kLanes = 1;
  std::int64_t v;

  static I64x1 broadcast(std::int64_t x) { return {x}; }
  static I64x1 load(const std::int64_t* p) { return {*p}; }
  void store(std::int64_t* p) const { *p = v; }
  static I64x1 add(I64x1 a, I64x1 b) { return {a.v + b.v}; }
  static I64x1 sub(I64x1 a, I64x1 b) { return {a.v - b.v}; }
  static I64x1 and_(I64x1 a, I64x1 b) { return {a.v & b.v}; }
  static I64x1 or_(I64x1 a, I64x1 b) { return {a.v | b.v}; }
  static I64x1 xor_(I64x1 a, I64x1 b) { return {a.v ^ b.v}; }
  static I64x1 ge0_mask(I64x1 d) { return {d.v >= 0 ? ~std::int64_t{0} : 0}; }
  static I64x1 srl(I64x1 a, int count) {
    return {static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v) >>
                                      static_cast<unsigned>(count))};
  }
  static I64x1 mullo(I64x1 a, I64x1 b) {
    return {static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v) *
                                      static_cast<std::uint64_t>(b.v))};
  }
  static I64x1 leu_mask(I64x1 a, I64x1 b) {
    return {static_cast<std::uint64_t>(a.v) <= static_cast<std::uint64_t>(b.v)
                ? ~std::int64_t{0}
                : 0};
  }
  static I64x1 shl1(I64x1 c) {
    return {static_cast<std::uint64_t>(c.v) < 64
                ? static_cast<std::int64_t>(std::uint64_t{1}
                                            << static_cast<std::uint64_t>(c.v))
                : 0};
  }
  static I64x1 gather(const std::int64_t* table, I64x1 idx) {
    return {table[idx.v]};
  }
  [[nodiscard]] std::uint32_t nonzero_mask() const { return v != 0 ? 1u : 0u; }
};

#if defined(MEMPART_SIMD_X86) && defined(__AVX2__)
/// Four int64 lanes over AVX2. Only visible in translation units compiled
/// with -mavx2 (the *_avx2.cpp kernel units); runtime dispatch keeps these
/// instructions off CPUs that lack them.
struct I64x4 {
  static constexpr Count kLanes = 4;
  __m256i v;

  static I64x4 broadcast(std::int64_t x) { return {_mm256_set1_epi64x(x)}; }
  static I64x4 load(const std::int64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::int64_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static I64x4 add(I64x4 a, I64x4 b) { return {_mm256_add_epi64(a.v, b.v)}; }
  static I64x4 sub(I64x4 a, I64x4 b) { return {_mm256_sub_epi64(a.v, b.v)}; }
  static I64x4 and_(I64x4 a, I64x4 b) { return {_mm256_and_si256(a.v, b.v)}; }
  static I64x4 or_(I64x4 a, I64x4 b) { return {_mm256_or_si256(a.v, b.v)}; }
  static I64x4 xor_(I64x4 a, I64x4 b) { return {_mm256_xor_si256(a.v, b.v)}; }
  static I64x4 srl(I64x4 a, int count) {
    return {_mm256_srl_epi64(a.v, _mm_cvtsi32_si128(count))};
  }
  static I64x4 mullo(I64x4 a, I64x4 b) {
    // No 64-bit multiply before AVX-512DQ; build the low half from 32x32
    // partials: lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32). The
    // cross terms' own high halves shift out of the 64-bit lane, so plain
    // epu32 products suffice.
    const __m256i lo = _mm256_mul_epu32(a.v, b.v);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a.v, 32), b.v),
                         _mm256_mul_epu32(a.v, _mm256_srli_epi64(b.v, 32)));
    return {_mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))};
  }
  static I64x4 leu_mask(I64x4 a, I64x4 b) {
    // a <=u b  ==  !(bias(a) >s bias(b)) with the sign bit flipped.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<std::int64_t>(std::uint64_t{1} << 63));
    const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a.v, bias),
                                          _mm256_xor_si256(b.v, bias));
    return {_mm256_xor_si256(gt, _mm256_set1_epi64x(-1))};
  }
  static I64x4 ge0_mask(I64x4 d) {
    return {_mm256_cmpgt_epi64(d.v, _mm256_set1_epi64x(-1))};
  }
  static I64x4 shl1(I64x4 c) {
    // SLLV zeroes lanes whose (unsigned) count is >= 64, which is exactly
    // the contract shl1 promises.
    return {_mm256_sllv_epi64(_mm256_set1_epi64x(1), c.v)};
  }
  static I64x4 gather(const std::int64_t* table, I64x4 idx) {
    return {_mm256_i64gather_epi64(reinterpret_cast<const long long*>(table),
                                   idx.v, 8)};
  }
  [[nodiscard]] std::uint32_t nonzero_mask() const {
    const __m256i eq0 = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
    const auto zero_lanes = static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(eq0)));
    return ~zero_lanes & 0xFu;
  }
};
#endif  // MEMPART_SIMD_X86 && __AVX2__

}  // namespace mempart::simd
