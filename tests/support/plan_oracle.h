// Oracle check shared by the AccessPlan suites: every bank and offset the
// SoA block walk emits must equal AddressMap::bank_of / offset_of of the
// access it stands for, under every dispatch tier this host supports.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/simd.h"
#include "pattern/pattern.h"
#include "sim/access_plan.h"
#include "sim/address_map.h"

namespace mempart::testing {

/// Walks `plan` once per supported tier and checks each tap plane of each
/// row block against per-access virtual calls on `map`, and the row count
/// against `domain`.
inline void expect_block_walk_matches_oracle(
    const sim::AccessPlan& plan, const sim::AddressMap& map,
    const Pattern& pattern, const std::vector<sim::PlanLoop>& domain) {
  const auto& offsets = pattern.offsets();
  const Coord step = domain.back().step;
  const size_t inner = domain.size() - 1;
  Count expected_rows = 1;
  for (size_t d = 0; d < inner; ++d) {
    expected_rows *= (domain[d].upper - domain[d].lower) / domain[d].step + 1;
  }
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    const std::string name(simd::tier_name(tier));
    Count rows = 0;
    plan.for_each_row_block([&](const NdIndex& row,
                                const sim::AccessPlan::RowBlock& block) {
      ++rows;
      ASSERT_EQ(block.taps, pattern.size());
      ASSERT_EQ(block.groups, plan.groups_per_row());
      ASSERT_EQ(block.offsets.size(), block.banks.size());
      for (Count t = 0; t < block.taps; ++t) {
        const auto banks = block.bank_plane(t);
        const auto addr = block.offset_plane(t);
        const NdIndex& delta = offsets[static_cast<size_t>(t)];
        NdIndex iv = row;
        for (size_t g = 0; g < banks.size(); ++g, iv[inner] += step) {
          const NdIndex x = add(iv, delta);
          ASSERT_EQ(banks[g], map.bank_of(x))
              << "tier=" << name << " bank mismatch at iv=" << to_string(iv)
              << " tap=" << to_string(delta);
          ASSERT_EQ(addr[g], map.offset_of(x))
              << "tier=" << name << " offset mismatch at iv="
              << to_string(iv) << " tap=" << to_string(delta);
        }
      }
    });
    EXPECT_EQ(rows, expected_rows) << "tier=" << name;
  }
}

}  // namespace mempart::testing
