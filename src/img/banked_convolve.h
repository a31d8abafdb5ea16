// Stencil evaluation THROUGH the partitioned memory.
//
// The end-to-end demonstration of the system: the input image is physically
// scattered across banks by an AddressMap, the loop nest replays Fig. 1(b)
// reading every sample back out of its bank while the AccessEngine charges
// cycles per parallel group. The produced image must equal the direct
// convolution bit-for-bit (the mapping is transparent to the computation);
// the interesting output is the cycle statistics — 1 cycle per iteration
// when delta_P = 0, versus m cycles on the unpartitioned FlatAddressMap.
#pragma once

#include "img/image.h"
#include "pattern/kernel.h"
#include "sim/access_engine.h"
#include "sim/address_map.h"

namespace mempart::img {

/// Output image plus the access-timing evidence.
struct BankedConvolveResult {
  Image output;
  sim::AccessStats stats;
};

/// Runs `kernel` over `input` with every sample fetched from the banked
/// layout defined by `map`. `map.array_shape()` must equal `input.shape()`.
/// Uses the compiled AccessPlan fast path when the map supports it (banks
/// and offsets from incremental updates, one issue_batch_soa per row);
/// otherwise falls back to convolve_banked_reference. Output and statistics
/// are bit-identical either way.
[[nodiscard]] BankedConvolveResult convolve_banked(const Image& input,
                                                   const Kernel& kernel,
                                                   const sim::AddressMap& map,
                                                   Count ports_per_bank = 1);

/// The original per-access path (virtual bank_of/offset_of per sample) —
/// kept as the oracle the fast path is tested against.
[[nodiscard]] BankedConvolveResult convolve_banked_reference(
    const Image& input, const Kernel& kernel, const sim::AddressMap& map,
    Count ports_per_bank = 1);

}  // namespace mempart::img
