// AVX2 instantiation of the bank-search kernels. This is one of the two
// translation units compiled with -mavx2 (see src/core/CMakeLists.txt and
// the sim twin soa_kernels_avx2.cpp), so four-lane instructions exist
// nowhere the runtime dispatcher cannot fence off: kernels_for() only
// hands out this table when cpuid reports AVX2.
#include "core/bank_kernels_impl.h"

#if !defined(__AVX2__)
#error "bank_kernels_avx2.cpp must be compiled with -mavx2"
#endif

namespace mempart::bank {

const Kernels& avx2_kernels() {
  static const Kernels kernels = make_kernels<simd::I64x4>();
  return kernels;
}

}  // namespace mempart::bank
