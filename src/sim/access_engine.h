// Cycle-accounting access engine.
//
// Models the memory subsystem the paper assumes: every bank serves
// `ports_per_bank` accesses per clock cycle (bandwidth 1 by default, §3).
// One loop iteration issues its m pattern accesses as a parallel group; the
// group completes in ceil(max per-bank demand / ports) cycles. A group whose
// accesses spread over m distinct banks therefore finishes in one cycle —
// the delta_P = 0 property — while the unpartitioned memory serialises it
// into m cycles. Statistics accumulate across groups so whole loop nests
// can be replayed and compared.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/nd.h"
#include "common/types.h"
#include "sim/address_map.h"

namespace mempart::sim {

/// Accumulated timing statistics of an engine.
struct AccessStats {
  Count iterations = 0;       ///< groups issued
  Count accesses = 0;         ///< individual element accesses
  Count cycles = 0;           ///< total cycles consumed
  Count conflict_cycles = 0;  ///< cycles beyond 1 per group (bank conflicts)
  Count worst_group_cycles = 0;
  std::vector<Count> bank_load;  ///< accesses per bank

  /// Mean cycles per issued group; the loop II when groups are iterations.
  [[nodiscard]] double avg_cycles_per_iteration() const;

  /// Effective elements fetched per cycle (the paper's bandwidth metric).
  [[nodiscard]] double effective_bandwidth() const;
};

/// Replays parallel access groups against an AddressMap and counts cycles.
class AccessEngine {
 public:
  /// `map` must outlive the engine. ports_per_bank >= 1 (bandwidth B of §3).
  AccessEngine(const AddressMap& map, Count ports_per_bank = 1);

  /// Issues one iteration's group of element addresses; returns the cycles
  /// this group needed. Addresses must lie in the array domain.
  Count issue(const std::vector<NdIndex>& group);

  /// Issues a whole SoA row block of pre-resolved bank indices (tap-major,
  /// as AccessPlan's block walk emits it: tap t's banks for all groups at
  /// [t * groups, (t+1) * groups)); returns the cycles the block needed.
  /// Statistics are bit-identical to calling issue() once per group, but
  /// it skips all address resolution and the per-group demand-vector clear
  /// (epoch-stamped counting). For N <= 64 banks, conflict-free groups are
  /// detected by a vectorized bank-occupancy bitmask (one 64-bit occupancy
  /// word per group, SIMD across groups) and cost exactly one cycle each;
  /// only the collided groups fall back to exact epoch-stamped demand
  /// counting. N > 64 takes the exact scalar path throughout. With metrics
  /// on, either path records the same sim.conflict_cycles_per_group
  /// distribution issue() does, the conflict-free groups as one weighted
  /// sample.
  MEMPART_NOALLOC Count issue_batch_soa(std::span<const Count> banks,
                                        Count taps, Count groups);

  [[nodiscard]] const AccessStats& stats() const { return stats_; }
  [[nodiscard]] Count ports_per_bank() const { return ports_; }

  /// Clears accumulated statistics.
  void reset();

 private:
  const AddressMap& map_;
  Count ports_;
  AccessStats stats_;
  std::vector<Count> demand_;  ///< scratch: per-bank demand of current group
  std::vector<Count> stamp_;   ///< scratch: epoch a bank's demand was touched
  Count epoch_ = 0;            ///< current issue_batch_soa group epoch
  std::vector<unsigned char> collided_;  ///< scratch: per-group conflict flags
};

/// Publishes `stats` into the obs metrics registry under `prefix`:
/// counters `<prefix>.{iterations,accesses,cycles,conflict_cycles}`, gauges
/// `<prefix>.bank_load.{min,max,mean}`, and a `<prefix>.bank_load`
/// histogram over the per-bank access counts. No-op with metrics disabled.
void publish_stats(const AccessStats& stats, std::string_view prefix = "sim");

}  // namespace mempart::sim
