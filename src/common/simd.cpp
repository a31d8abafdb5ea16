#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/errors.h"

namespace mempart::simd {
namespace {

/// -1 means "not resolved yet"; active_tier() initialises lazily so the
/// MEMPART_SIMD environment variable is honoured however early the first
/// fast-path call happens.
std::atomic<int> g_active_tier{-1};

bool cpu_has_avx2() {
#if defined(MEMPART_SIMD_X86)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// An avx2 request on a CPU without it runs scalar.
Tier clamp_to_supported(Tier tier) {
  return tier == Tier::kAvx2 && !cpu_has_avx2() ? Tier::kScalar : tier;
}

Tier resolve_initial() {
  // getenv, not a cached copy: tests and the CI dispatch matrix rely on the
  // variable being read at first use of the fast path. parse_tier_env
  // throws on unknown spellings — a typo silently meaning "auto" would let
  // the dispatch matrix test the wrong tier.
  if (const char* env = std::getenv("MEMPART_SIMD")) {
    if (*env != '\0') {
      const std::optional<Tier> requested = parse_tier_env(env);
      if (requested.has_value()) return clamp_to_supported(*requested);
    }
  }
  return clamp_to_supported(Tier::kAvx2);
}

}  // namespace

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (cpu_has_avx2()) tiers.push_back(Tier::kAvx2);
  return tiers;
}

Tier active_tier() {
  int raw = g_active_tier.load(std::memory_order_acquire);
  if (raw < 0) {
    const Tier resolved = resolve_initial();
    raw = static_cast<int>(resolved);
    int expected = -1;
    if (!g_active_tier.compare_exchange_strong(expected, raw,
                                               std::memory_order_acq_rel)) {
      raw = expected;  // another thread resolved (or overrode) first
    }
  }
  return static_cast<Tier>(raw);
}

Tier set_tier(Tier tier) {
  const Tier installed = clamp_to_supported(tier);
  g_active_tier.store(static_cast<int>(installed), std::memory_order_release);
  return installed;
}

std::string_view tier_name(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

std::optional<Tier> parse_tier_env(std::string_view value) {
  if (value == "auto") return std::nullopt;
  if (value == "scalar") return Tier::kScalar;
  if (value == "avx2") return Tier::kAvx2;
  throw InvalidArgument("MEMPART_SIMD='" + std::string(value) +
                        "' is not a dispatch tier (expected scalar, avx2 or "
                        "auto)");
}

}  // namespace mempart::simd
