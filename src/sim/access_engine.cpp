#include "sim/access_engine.h"

#include <algorithm>
#include <string>

#include "common/errors.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/soa_kernels.h"

namespace mempart::sim {

double AccessStats::avg_cycles_per_iteration() const {
  return iterations == 0
             ? 0.0
             : static_cast<double>(cycles) / static_cast<double>(iterations);
}

double AccessStats::effective_bandwidth() const {
  return cycles == 0
             ? 0.0
             : static_cast<double>(accesses) / static_cast<double>(cycles);
}

AccessEngine::AccessEngine(const AddressMap& map, Count ports_per_bank)
    : map_(map), ports_(ports_per_bank) {
  MEMPART_REQUIRE(ports_ >= 1, "AccessEngine: ports_per_bank must be >= 1");
  stats_.bank_load.assign(static_cast<size_t>(map_.num_banks()), 0);
  demand_.assign(static_cast<size_t>(map_.num_banks()), 0);
  stamp_.assign(demand_.size(), Count{-1});
}

// mempart-analyze: allow(span-coverage) per-iteration hot path; the per-group histogram below is the observation point, a span per group would dominate runtime
Count AccessEngine::issue(const std::vector<NdIndex>& group) {
  MEMPART_REQUIRE(!group.empty(), "AccessEngine::issue: empty group");
  std::fill(demand_.begin(), demand_.end(), Count{0});
  for (const NdIndex& x : group) {
    const Count bank = map_.bank_of(x);
    MEMPART_ASSERT(bank >= 0 && bank < map_.num_banks(),
                   "AddressMap returned bank out of range");
    ++demand_[static_cast<size_t>(bank)];
    ++stats_.bank_load[static_cast<size_t>(bank)];
  }
  Count worst = 0;
  for (Count d : demand_) worst = std::max(worst, d);
  const Count group_cycles = ceil_div(worst, ports_);

  ++stats_.iterations;
  stats_.accesses += static_cast<Count>(group.size());
  stats_.cycles += group_cycles;
  stats_.conflict_cycles += group_cycles - 1;
  stats_.worst_group_cycles = std::max(stats_.worst_group_cycles, group_cycles);
  // Per-group conflict-cycle distribution. This runs once per simulated
  // iteration, so the disabled path must stay a thread-local read plus a
  // branch: the bounds vector is a function-local static, built once.
  static const std::vector<double> kConflictBounds = obs::pow2_bounds(8);
  obs::observe("sim.conflict_cycles_per_group",
               static_cast<double>(group_cycles - 1), kConflictBounds);
  return group_cycles;
}

Count AccessEngine::issue_batch_soa(std::span<const Count> banks, Count taps,
                                    Count groups) {
  MEMPART_REQUIRE(taps >= 1, "AccessEngine::issue_batch_soa: taps must be >= 1");
  MEMPART_REQUIRE(groups >= 0,
                  "AccessEngine::issue_batch_soa: groups must be >= 0");
  MEMPART_REQUIRE(
      banks.size() == static_cast<size_t>(taps) * static_cast<size_t>(groups),
      "AccessEngine::issue_batch_soa: banks span is not taps * groups");
  if (groups == 0) return 0;
  obs::Span span("sim.issue_batch");
  span.arg("banks", static_cast<Count>(banks.size())).arg("group", taps);
  obs::LatencyTimer timer("sim.issue_batch.ns");
  const Count num_banks = map_.num_banks();
  const size_t plane = static_cast<size_t>(groups);

  Count batch_cycles = 0;
  if (num_banks <= 64 && !obs::metrics_enabled()) {
    // Bitmask conflict test across whole lane blocks of groups: a group is
    // conflict-free iff no tap's occupancy bit was already set, and such a
    // group costs exactly ceil(1/ports) = 1 cycle. Only collided groups
    // need the exact epoch-stamped demand count. Range validation is fused
    // into the same pass (the kernel's shl1 is total, so scanning ahead of
    // the assert is safe) and must pass before any bank indexes a table.
    const soa::Kernels& kernels = soa::kernels_for(simd::active_tier());
    collided_.resize(plane);  // mempart-analyze: allow(noalloc) first-touch growth of the member collision buffer; steady-state batches reuse its capacity
    bool in_range = true;
    const Count collided_groups = kernels.find_collisions(
        banks.data(), taps, groups, num_banks, collided_.data(), &in_range);
    MEMPART_ASSERT(in_range, "issue_batch_soa: bank out of range in block");
    // Bank-load histogram over the whole contiguous block. Four interleaved
    // partial histograms break the store-forward chain a single counter
    // array serialises on whenever neighbouring accesses share a bank.
    {
      Count part[4][64] = {};
      const Count* data = banks.data();
      const size_t total = banks.size();
      size_t j = 0;
      for (; j + 4 <= total; j += 4) {
        ++part[0][static_cast<size_t>(data[j])];
        ++part[1][static_cast<size_t>(data[j + 1])];
        ++part[2][static_cast<size_t>(data[j + 2])];
        ++part[3][static_cast<size_t>(data[j + 3])];
      }
      for (; j < total; ++j) ++part[0][static_cast<size_t>(data[j])];
      for (size_t b = 0; b < static_cast<size_t>(num_banks); ++b) {
        stats_.bank_load[b] +=
            part[0][b] + part[1][b] + part[2][b] + part[3][b];
      }
    }
    batch_cycles = groups - collided_groups;
    Count worst_cycles = collided_groups < groups ? 1 : 0;
    for (Count g = 0; collided_groups > 0 && g < groups; ++g) {
      if (collided_[static_cast<size_t>(g)] == 0) continue;
      const Count epoch = epoch_++;
      Count worst = 0;
      for (size_t t = 0; t < static_cast<size_t>(taps); ++t) {
        const auto slot =
            static_cast<size_t>(banks[t * plane + static_cast<size_t>(g)]);
        const Count d = stamp_[slot] == epoch ? demand_[slot] + 1 : Count{1};
        demand_[slot] = d;
        stamp_[slot] = epoch;
        worst = std::max(worst, d);
      }
      const Count group_cycles = ceil_div(worst, ports_);
      batch_cycles += group_cycles;
      worst_cycles = std::max(worst_cycles, group_cycles);
    }
    stats_.iterations += groups;
    stats_.accesses += checked_mul(taps, groups);
    stats_.cycles += batch_cycles;
    stats_.conflict_cycles += batch_cycles - groups;
    stats_.worst_group_cycles =
        std::max(stats_.worst_group_cycles, worst_cycles);
  } else {
    // Exact scalar path: more than 64 banks (occupancy no longer fits one
    // word) or metrics enabled (the per-group histogram observation below
    // must fire for every group, as issue() does). Validate every plane
    // before scoring touches a table: branch-free OR-accumulate, one assert
    // per tap plane — bank and (num_banks - 1 - bank) are both non-negative
    // exactly when the bank is in [0, num_banks).
    for (size_t t = 0; t < static_cast<size_t>(taps); ++t) {
      const Count* row = banks.data() + t * plane;
      Count range_acc = 0;
      for (size_t g = 0; g < plane; ++g) {
        range_acc |= row[g] | (num_banks - 1 - row[g]);
      }
      MEMPART_ASSERT(range_acc >= 0,
                     "issue_batch_soa: bank out of range in tap plane");
    }
    static const std::vector<double> kConflictBounds = obs::pow2_bounds(8);
    for (Count g = 0; g < groups; ++g) {
      const Count epoch = epoch_++;
      Count worst = 0;
      for (size_t t = 0; t < static_cast<size_t>(taps); ++t) {
        const auto slot =
            static_cast<size_t>(banks[t * plane + static_cast<size_t>(g)]);
        const Count d = stamp_[slot] == epoch ? demand_[slot] + 1 : Count{1};
        demand_[slot] = d;
        stamp_[slot] = epoch;
        ++stats_.bank_load[slot];
        worst = std::max(worst, d);
      }
      const Count group_cycles = ceil_div(worst, ports_);
      ++stats_.iterations;
      stats_.accesses += taps;
      stats_.cycles += group_cycles;
      stats_.conflict_cycles += group_cycles - 1;
      stats_.worst_group_cycles =
          std::max(stats_.worst_group_cycles, group_cycles);
      obs::observe("sim.conflict_cycles_per_group",
                   static_cast<double>(group_cycles - 1), kConflictBounds);
      batch_cycles += group_cycles;
    }
  }
  return batch_cycles;
}

// mempart-analyze: allow(span-coverage) trivial state reset; nothing worth tracing
void AccessEngine::reset() {
  stats_ = AccessStats{};
  stats_.bank_load.assign(static_cast<size_t>(map_.num_banks()), 0);
  std::fill(demand_.begin(), demand_.end(), Count{0});
  std::fill(stamp_.begin(), stamp_.end(), Count{-1});
  epoch_ = 0;
}

void publish_stats(const AccessStats& stats, std::string_view prefix) {
  if (!obs::metrics_enabled()) return;
  const std::string base(prefix);
  obs::count(base + ".iterations", stats.iterations);
  obs::count(base + ".accesses", stats.accesses);
  obs::count(base + ".cycles", stats.cycles);
  obs::count(base + ".conflict_cycles", stats.conflict_cycles);
  if (stats.bank_load.empty()) return;
  Count min_load = stats.bank_load.front();
  Count max_load = min_load;
  Count total = 0;
  static const std::vector<double> kLoadBounds = obs::pow2_bounds(24);
  const std::string load_metric = base + ".bank_load";
  for (const Count load : stats.bank_load) {
    min_load = std::min(min_load, load);
    max_load = std::max(max_load, load);
    total += load;
    obs::observe(load_metric, static_cast<double>(load), kLoadBounds);
  }
  obs::gauge(base + ".bank_load.min", static_cast<double>(min_load));
  obs::gauge(base + ".bank_load.max", static_cast<double>(max_load));
  obs::gauge(base + ".bank_load.mean",
             static_cast<double>(total) /
                 static_cast<double>(stats.bank_load.size()));
}

}  // namespace mempart::sim
