#include "check/differential.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <optional>
#include <sstream>

#include "baseline/ltb.h"
#include "baseline/ltb_mapping.h"
#include "check/oracle.h"
#include "common/errors.h"
#include "common/simd.h"
#include "core/partitioner.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/access_plan.h"
#include "sim/address_map.h"

namespace mempart::check {
namespace {

void diverge(DiffReport& report, std::string kind, std::string detail) {
  obs::count("check.divergences");
  report.divergences.push_back({std::move(kind), std::move(detail)});
}

/// True when the raw offsets are definitionally invalid: empty, ragged
/// ranks, or duplicates. These MUST make Pattern construction throw.
bool offsets_invalid(const std::vector<NdIndex>& offsets) {
  if (offsets.empty()) return true;
  const size_t rank = offsets.front().size();
  if (rank == 0) return true;
  for (const auto& o : offsets) {
    if (o.size() != rank) return true;
  }
  auto sorted = offsets;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

bool shape_invalid(const std::vector<Count>& shape) {
  return std::any_of(shape.begin(), shape.end(),
                     [](Count w) { return w <= 0; });
}

std::string stats_to_string(const sim::AccessStats& s) {
  std::ostringstream os;
  os << "{iters=" << s.iterations << " accesses=" << s.accesses
     << " cycles=" << s.cycles << " conflict=" << s.conflict_cycles
     << " worst=" << s.worst_group_cycles << '}';
  return os.str();
}

bool stats_equal(const sim::AccessStats& a, const sim::AccessStats& b) {
  return a.iterations == b.iterations && a.accesses == b.accesses &&
         a.cycles == b.cycles && a.conflict_cycles == b.conflict_cycles &&
         a.worst_group_cycles == b.worst_group_cycles &&
         a.bank_load == b.bank_load;
}

/// Replays the SoA block walk under every SIMD tier this binary + CPU can
/// execute against per-access virtual calls on `map` (the oracle); reports
/// each tier's first (bank, offset) disagreement, or a walk that emits a
/// different number of groups than the domain holds.
void check_plan_against_map(const sim::AccessPlan& plan,
                            const sim::AddressMap& map, const Pattern& pattern,
                            const std::vector<sim::PlanLoop>& domain,
                            const std::string& label, DiffReport& report) {
  const auto& offsets = pattern.offsets();
  const Coord step = domain.back().step;
  const size_t inner = domain.size() - 1;
  for (const simd::Tier tier : simd::supported_tiers()) {
    const simd::TierOverride guard(tier);
    const std::string who =
        label + ": tier " + std::string(simd::tier_name(tier));
    Count groups_seen = 0;
    bool done = false;
    plan.for_each_row_block([&](const NdIndex& row,
                                const sim::AccessPlan::RowBlock& block) {
      if (done) return;
      groups_seen += block.groups;
      for (Count t = 0; t < block.taps && !done; ++t) {
        const auto banks = block.bank_plane(t);
        const auto addr = block.offset_plane(t);
        const NdIndex& delta = offsets[static_cast<size_t>(t)];
        NdIndex iv = row;
        for (size_t g = 0; g < banks.size(); ++g, iv[inner] += step) {
          const NdIndex x = add(iv, delta);
          const Count want_bank = map.bank_of(x);
          const Address want_addr = map.offset_of(x);
          if (banks[g] == want_bank && addr[g] == want_addr) continue;
          std::ostringstream os;
          os << who << " plan says (bank " << banks[g] << ", offset "
             << addr[g] << ") but map says (bank " << want_bank
             << ", offset " << want_addr << ") at iv=" << to_string(iv)
             << " tap=" << to_string(delta);
          diverge(report, "plan-vs-map", os.str());
          done = true;
          break;
        }
      }
    });
    if (!done && groups_seen != plan.total_groups()) {
      diverge(report, "plan-vs-map",
              who + " walked " + std::to_string(groups_seen) +
                  " groups but the domain has " +
                  std::to_string(plan.total_groups()));
    }
  }
}

/// Oracle passes plus plan/engine cross-checks shared by the closed-form
/// mapping and the LTB baseline.
void check_mapping(const sim::AddressMap& map, const Pattern& pattern,
                   Count claimed_delta, bool delta_is_bound,
                   const std::string& label, DiffReport& report) {
  const NdShape& shape = map.array_shape();

  const BankFn bank_fn = [&](const std::vector<Coord>& x) {
    return map.bank_of(x);
  };
  const OffsetFn offset_fn = [&](const std::vector<Coord>& x) {
    return map.offset_of(x);
  };

  std::vector<std::vector<Coord>> raw_offsets(pattern.offsets().begin(),
                                              pattern.offsets().end());
  const ConflictReport conflicts =
      enumerate_conflicts(raw_offsets, shape.extents(), bank_fn);
  report.oracle_positions += conflicts.positions;
  if (conflicts.positions > 0) {
    const bool bad = delta_is_bound ? conflicts.delta_p > claimed_delta
                                    : conflicts.delta_p != claimed_delta;
    if (bad) {
      std::ostringstream os;
      os << label << ": oracle measured delta_P = " << conflicts.delta_p
         << " at s=" << to_string(conflicts.worst_position) << " but solver "
         << (delta_is_bound ? "bounds it by " : "claims exactly ")
         << claimed_delta;
      diverge(report, "delta-bound", os.str());
    }
  }

  std::vector<Count> capacity(static_cast<size_t>(map.num_banks()));
  for (Count b = 0; b < map.num_banks(); ++b) {
    capacity[static_cast<size_t>(b)] = map.bank_capacity(b);
  }
  const AddressReport addresses = enumerate_addresses(
      shape.extents(), map.num_banks(), bank_fn, offset_fn, capacity);
  if (!addresses.ok) {
    diverge(report, "address-uniqueness", label + ": " + addresses.violation);
  }

  // AccessPlan vs the virtual map, and fast vs reference simulation —
  // only meaningful when the pattern fits somewhere in the array.
  if (conflicts.positions > 0) {
    const loopnest::StencilProgram program(shape, pattern, "check");
    const auto domain = loopnest::plan_domain(program.loop_nest());
    const sim::AccessPlan plan(map, pattern, domain);
    check_plan_against_map(plan, map, pattern, domain, label, report);

    // Cycle statistics must be bit-identical for every dispatch tier, not
    // just the ambient one: the SoA engine's bitmask scoring path and the
    // vector generation kernels both vary with the tier.
    const sim::AccessStats reference = loopnest::simulate(program, map);
    for (const simd::Tier tier : simd::supported_tiers()) {
      const simd::TierOverride guard(tier);
      const sim::AccessStats fast = loopnest::simulate_fast(program, map);
      if (!stats_equal(fast, reference)) {
        diverge(report, "fast-vs-reference",
                label + ": simulate_fast[" +
                    std::string(simd::tier_name(tier)) + "] " +
                    stats_to_string(fast) + " != simulate " +
                    stats_to_string(reference));
      }
    }
  }
}

/// Field-by-field comparison of two solutions of the same request; returns
/// an empty string on agreement. ops are excluded deliberately — a cache
/// hit honestly performs (and reports) less arithmetic than a full solve.
std::string solution_mismatch(const PartitionSolution& a,
                              const PartitionSolution& b) {
  std::ostringstream os;
  if (a.transform.alpha() != b.transform.alpha()) {
    os << "alpha " << a.transform.to_string() << " != "
       << b.transform.to_string();
  } else if (a.search.num_banks != b.search.num_banks ||
             a.search.max_difference != b.search.max_difference ||
             a.search.rejected_candidates != b.search.rejected_candidates) {
    os << "search (Nf " << a.search.num_banks << ", M "
       << a.search.max_difference << ") != (Nf " << b.search.num_banks
       << ", M " << b.search.max_difference << ")";
  } else if (a.constraint.num_banks != b.constraint.num_banks ||
             a.constraint.fold_factor != b.constraint.fold_factor ||
             a.constraint.delta_ii != b.constraint.delta_ii ||
             a.constraint.strategy != b.constraint.strategy ||
             a.constraint.sweep != b.constraint.sweep) {
    os << "constraint (Nc " << a.constraint.num_banks << ", F "
       << a.constraint.fold_factor << ", delta " << a.constraint.delta_ii
       << ") != (Nc " << b.constraint.num_banks << ", F "
       << b.constraint.fold_factor << ", delta " << b.constraint.delta_ii
       << ")";
  } else if (a.transformed != b.transformed) {
    os << "transformed values differ";
  } else if (a.pattern_banks != b.pattern_banks) {
    os << "pattern banks differ";
  } else if (a.bank_bandwidth != b.bank_bandwidth) {
    os << "bank_bandwidth differs";
  } else if (a.mapping.has_value() != b.mapping.has_value()) {
    os << "mapping presence differs";
  } else if (a.mapping.has_value() &&
             (a.mapping->total_capacity() != b.mapping->total_capacity() ||
              a.mapping->storage_overhead_elements() !=
                  b.mapping->storage_overhead_elements())) {
    os << "mapping capacity " << a.mapping->total_capacity() << "/overhead "
       << a.mapping->storage_overhead_elements() << " != "
       << b.mapping->total_capacity() << "/"
       << b.mapping->storage_overhead_elements();
  }
  return os.str();
}

void run_matrix(const CheckConfig& config, DiffReport& report) {
  // ---- Rejection contracts -------------------------------------------------
  const bool must_reject_pattern = offsets_invalid(config.offsets);
  std::optional<Pattern> pattern;
  try {
    pattern.emplace(config.offsets, "check");
  } catch (const Error& e) {
    if (!must_reject_pattern) throw;  // surprising but clean: clean_reject
    report.clean_reject = true;
    report.reject_reason = e.what();
    return;
  }
  if (must_reject_pattern) {
    diverge(report, "missing-rejection",
            "Pattern accepted definitionally invalid offsets (duplicates, "
            "ragged ranks, or empty set)");
    return;
  }

  const bool must_reject_shape = shape_invalid(config.shape);
  std::optional<NdShape> shape;
  if (!config.shape.empty()) {
    try {
      shape.emplace(config.shape);
    } catch (const Error& e) {
      if (!must_reject_shape) throw;
      report.clean_reject = true;
      report.reject_reason = e.what();
      return;
    }
    if (must_reject_shape) {
      diverge(report, "missing-rejection",
              "NdShape accepted a non-positive extent");
      return;
    }
    if (shape->rank() != pattern->rank()) shape.reset();
  }

  // ---- Closed-form solve ---------------------------------------------------
  const Count volume =
      shape ? bounded_volume(shape->extents(), kExhaustiveVolumeLimit) : 0;
  report.exhaustive = shape.has_value() && volume >= 0;

  PartitionRequest request;
  request.pattern = *pattern;
  if (shape && report.exhaustive) request.array_shape = *shape;
  request.max_banks = config.max_banks;
  request.bank_bandwidth = config.bank_bandwidth;
  request.strategy = config.strategy;
  request.tail = config.tail;
  const PartitionSolution solution = Partitioner::solve(request);

  // ---- Cache path vs direct solve -----------------------------------------
  // The same request through the batch API and a shared solve cache must
  // reproduce the direct solution field for field. The cache is deliberately
  // tiny so a fuzz run keeps evicting and re-solving, exercising hit, miss
  // and eviction paths alike; the second (warm) solve pins the hit path.
  {
    static SolveCache cache(/*capacity=*/64, /*shards=*/4);
    static Partitioner cached(&cache);
    static Mutex mutex;
    const MutexLock lock(mutex);
    BatchOptions options;
    options.threads = 1;
    const std::array<PartitionRequest, 1> batch{request};
    const auto batched = cached.solve_many_collect(batch, options);
    if (!batched.front().ok()) {
      diverge(report, "cache-vs-direct",
              "direct solve succeeded but solve_many rejected the request: " +
                  batched.front().error);
      return;
    }
    std::string mismatch = solution_mismatch(*batched.front().solution,
                                             solution);
    if (!mismatch.empty()) {
      diverge(report, "cache-vs-direct", "solve_many (miss path): " + mismatch);
      return;
    }
    const PartitionSolution warm = cached.solve_cached(request);
    mismatch = solution_mismatch(warm, solution);
    if (!mismatch.empty()) {
      diverge(report, "cache-vs-direct", "warm hit: " + mismatch);
      return;
    }
  }

  // ---- Solution-internal claims -------------------------------------------
  if (solution.num_banks() < 1) {
    diverge(report, "bogus-banks",
            "solver returned num_banks = " +
                std::to_string(solution.num_banks()));
    return;
  }
  for (Count b : solution.pattern_banks) {
    if (b < 0 || b >= solution.num_banks()) {
      diverge(report, "bogus-banks",
              "pattern bank " + std::to_string(b) + " outside [0, " +
                  std::to_string(solution.num_banks()) + ")");
      return;
    }
  }
  if (solution.delta_ii() == 0) {
    // Zero delta_P claims all m accesses hit distinct banks.
    auto banks = solution.pattern_banks;
    std::sort(banks.begin(), banks.end());
    if (std::adjacent_find(banks.begin(), banks.end()) != banks.end()) {
      diverge(report, "pattern-banks",
              "delta_P = 0 claimed but two pattern offsets share a bank");
    }
  }

  // ---- Oracle + plan/engine passes over the concrete array ----------------
  const bool delta_is_bound = solution.constraint.fold_factor > 1;
  if (solution.mapping.has_value()) {
    const sim::CoreAddressMap map(*solution.mapping);
    check_mapping(map, *pattern, solution.delta_ii(), delta_is_bound,
                  "closed-form", report);

    // Storage accounting: total capacity must be the sum of the banks and
    // never smaller than the element count.
    Count sum = 0;
    for (Count b = 0; b < map.num_banks(); ++b) sum += map.bank_capacity(b);
    if (sum != solution.mapping->total_capacity()) {
      diverge(report, "capacity-sum",
              "sum of bank capacities " + std::to_string(sum) +
                  " != total_capacity " +
                  std::to_string(solution.mapping->total_capacity()));
    }
    if (solution.mapping->storage_overhead_elements() < 0) {
      diverge(report, "negative-overhead",
              "storage overhead " +
                  std::to_string(solution.mapping->storage_overhead_elements()) +
                  " < 0: capacity below the element count");
    }
  }

  // ---- LTB baseline cross-check -------------------------------------------
  // The exhaustive search is exponential in rank, so only small instances
  // are compared; its N is minimal over ALL linear transforms, so it can
  // never need more banks than the closed-form N_f.
  if (pattern->rank() <= 2 && pattern->size() <= 9) {
    baseline::LtbOptions ltb_options;
    ltb_options.max_banks = 64;
    std::optional<baseline::LtbSolution> ltb;
    try {
      ltb = baseline::ltb_solve(*pattern, ltb_options);
    } catch (const Error&) {
      // No solution within the cap: not comparable, not a divergence.
    }
    if (ltb.has_value()) {
      if (ltb->num_banks > solution.search.num_banks) {
        diverge(report, "ltb-vs-closed-form",
                "exhaustive LTB needed " + std::to_string(ltb->num_banks) +
                    " banks but closed-form N_f is " +
                    std::to_string(solution.search.num_banks));
      }
      if (shape && report.exhaustive) {
        std::optional<baseline::LtbMapping> ltb_mapping;
        try {
          ltb_mapping.emplace(*shape, ltb->transform, ltb->num_banks);
        } catch (const Error&) {
          // Searched alpha failed LtbMapping's injectivity precondition —
          // a documented rejection, not a divergence.
        }
        if (ltb_mapping.has_value()) {
          const sim::LtbAddressMap ltb_map(*ltb_mapping);
          check_mapping(ltb_map, *pattern, /*claimed_delta=*/0,
                        /*delta_is_bound=*/false, "ltb", report);
        }
      }
    }
  }
}

}  // namespace

DiffReport run_config(const CheckConfig& config) {
  obs::Span span("check.run_config");
  DiffReport report;
  try {
    run_matrix(config, report);
  } catch (const InternalError& e) {
    // A failed MEMPART_ASSERT is a bug, never a rejection of the input.
    diverge(report, "internal-error", e.what());
  } catch (const Error& e) {
    report.clean_reject = true;
    report.reject_reason = e.what();
  } catch (const std::exception& e) {
    diverge(report, "crash",
            std::string("non-mempart exception escaped: ") + e.what());
  } catch (...) {
    diverge(report, "crash", "unknown exception escaped");
  }
  obs::count("check.configs");
  if (report.clean_reject) obs::count("check.clean_rejects");
  span.arg("divergences", static_cast<Count>(report.divergences.size()));
  return report;
}

}  // namespace mempart::check
