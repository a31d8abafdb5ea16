// Scalar instantiation of the SoA kernels, plus the tier dispatch table.
// The AVX2 instantiation lives in soa_kernels_avx2.cpp (its own translation
// unit compiled with -mavx2); this file only calls through its table when
// CMake compiled it in, so a build without the AVX2 unit still links and
// runs avx2 requests on the scalar kernels.
#include "sim/soa_kernels_impl.h"

namespace mempart::sim::soa {

const Kernels& kernels_for(simd::Tier tier) {
  static const Kernels scalar = make_kernels<simd::I64x1>();
#if defined(MEMPART_HAVE_AVX2_KERNELS)
  if (tier == simd::Tier::kAvx2) return avx2_kernels();
#endif
  (void)tier;
  return scalar;
}

}  // namespace mempart::sim::soa
