// AVX2 instantiation of the SoA kernels. This is one of the two translation
// units compiled with -mavx2 (see src/sim/CMakeLists.txt and the core twin
// bank_kernels_avx2.cpp), so four-lane instructions exist nowhere the
// runtime dispatcher cannot fence off: kernels_for() only hands out this
// table when cpuid reports AVX2.
#include "sim/soa_kernels_impl.h"

#if !defined(__AVX2__)
#error "soa_kernels_avx2.cpp must be compiled with -mavx2"
#endif

namespace mempart::sim::soa {

const Kernels& avx2_kernels() {
  static const Kernels kernels = make_kernels<simd::I64x4>();
  return kernels;
}

}  // namespace mempart::sim::soa
