#include "core/partitioner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/errors.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "core/delta_ii.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart {
namespace {

// Flat canonical cache key: solver options that shape the canonical solve,
// then the canonical form. Tail policy and the array shape are deliberately
// absent — they only affect the (never cached) BankMapping stage.
//
//   [0] max_banks  [1] bank_bandwidth  [2] strategy
//   [3] permutation allowed (the identity-forced fallback must not collide
//       with the permuted class)
//   [4] rank  [5] m  [6..6+n) canonical extents  [6+n..) sorted z values
constexpr size_t kKeyHeader = 6;

// Appends the key to `key`. Alloc fence: the buffer is caller-owned and
// grows geometrically — warm solves reuse its capacity (pinned by the
// zero-alloc cache test).
MEMPART_ALLOC_BOUNDARY void append_key(const PartitionRequest& request,
                                       const Canonicalizer::View& view,
                                       bool allow_permutation,
                                       std::vector<std::int64_t>& key) {
  key.push_back(request.max_banks);
  key.push_back(request.bank_bandwidth);
  key.push_back(static_cast<std::int64_t>(request.strategy));
  key.push_back(allow_permutation ? 1 : 0);
  key.push_back(static_cast<std::int64_t>(view.extents.size()));
  key.push_back(static_cast<std::int64_t>(view.values.size()));
  key.insert(key.end(), view.extents.begin(), view.extents.end());
  key.insert(key.end(), view.sorted_values.begin(), view.sorted_values.end());
}

// The sorted z values a key ends with: the canonical solve's input.
std::span<const Address> sorted_values_of(std::span<const std::int64_t> key) {
  return key.subspan(kKeyHeader + static_cast<size_t>(key[4]));
}

// Mirror of the BankMapping constructor's innermost-remap injectivity
// preconditions (see bank_mapping.cpp). A rehydrated permuted alpha has
// alpha_{n-1} = w_j of some outer canonical dim, not necessarily 1, so a
// shaped request must be pre-checked; on failure the solver falls back to
// the identity (translation-only) canonical form, whose derived alpha ends
// in 1 and always passes.
bool remap_injective(const NdShape& shape, Count alpha_last, Count num_banks,
                     Count fold_modulus, TailPolicy tail) {
  const Count modulus = (fold_modulus == 0 || fold_modulus == num_banks)
                            ? num_banks
                            : fold_modulus;
  const Count innermost = shape.extent(shape.rank() - 1);
  if (tail == TailPolicy::kPadded) {
    const Count span = checked_mul(ceil_div(innermost, modulus), modulus);
    const Count period = span / gcd(euclid_mod(alpha_last, span), span);
    return innermost <= period;
  }
  const Count body_slices = innermost / modulus;
  if (body_slices > 0) {
    const Count body_span = body_slices * modulus;
    if (gcd(euclid_mod(alpha_last, body_span), body_span) != 1) return false;
  }
  const Count tail_len = innermost - body_slices * modulus;
  if (tail_len > 0) {
    const Count period =
        modulus / gcd(euclid_mod(alpha_last, modulus), modulus);
    if (tail_len > period) return false;
  }
  return true;
}

// The canonical solve: Algorithm 1 plus the constraint stage, both over the
// sorted canonical values only — everything a cache entry holds. Alloc
// fence: this is the cache-miss cold path; the warm path never enters it.
MEMPART_ALLOC_BOUNDARY std::shared_ptr<const CachedSolve> solve_core(
    const PartitionRequest& request, std::span<const Address> sorted_z,
    BankSearchScratch& scratch) {
  auto core = std::make_shared<CachedSolve>();

  // Stage 2 (§4.3.1): Algorithm 1 minimises the unconstrained bank count.
  // The difference-set diagnostics (the case-study's Q) are not materialised
  // here; call minimize_banks directly when you need them.
  core->search = minimize_banks(sorted_z, /*collect_diagnostics=*/false,
                                &scratch);

  // Stage 3 (§4.3.2 + §5.1 bank combining): with bank bandwidth B, combining
  // B conflict-free banks into one keeps single-cycle access, so B tightens
  // the effective bank cap to ceil(N_f / B).
  Count effective_cap = request.max_banks;
  if (request.bank_bandwidth > 1) {
    const Count bandwidth_cap =
        ceil_div(core->search.num_banks, request.bank_bandwidth);
    effective_cap = effective_cap == 0
                        ? bandwidth_cap
                        : std::min(effective_cap, bandwidth_cap);
  }
  {
    obs::Span stage("partitioner.constrain");
    stage.arg("nf", core->search.num_banks).arg("cap", effective_cap);
    if (effective_cap == 0 || core->search.num_banks <= effective_cap) {
      core->constraint.num_banks = core->search.num_banks;
      core->constraint.fold_factor = 1;
      core->constraint.delta_ii = 0;
      core->constraint.strategy = request.strategy;
    } else if (request.strategy == ConstraintStrategy::kFastFold) {
      core->constraint = constrain_fast(core->search.num_banks, effective_cap);
    } else {
      core->constraint = constrain_same_size(sorted_z, effective_cap);
    }
  }
  return core;
}

void validate(const PartitionRequest& request) {
  MEMPART_REQUIRE(request.pattern.has_value(),
                  "Partitioner::solve: request.pattern is required");
  MEMPART_REQUIRE(request.max_banks >= 0,
                  "Partitioner::solve: max_banks must be >= 0");
  MEMPART_REQUIRE(request.bank_bandwidth >= 1,
                  "Partitioner::solve: bank_bandwidth must be >= 1");
  if (request.array_shape.has_value()) {
    MEMPART_REQUIRE(request.array_shape->rank() == request.pattern->rank(),
                    "Partitioner::solve: array rank != pattern rank");
  }
}

// Probes `cache` for `key` and solves the class from `sorted_z` on a miss —
// single-flight, so concurrent callers with one cold key share one solve.
// Without a cache it always solves (and `key` is unused). `hit` reports an
// entry that was already resident.
std::shared_ptr<const CachedSolve> find_or_solve_core(
    SolveCache* cache, std::span<const std::int64_t> key,
    const PartitionRequest& request, std::span<const Address> sorted_z,
    BankSearchScratch& scratch, bool& hit) {
  const auto solve = [&] {
    obs::LatencyTimer core_timer("partitioner.solve_core.ns");
    return solve_core(request, sorted_z, scratch);
  };
  hit = false;
  if (cache == nullptr) return solve();
  // Probe latency is split by outcome so a p99 regression in either the
  // sharded-map walk (miss) or the entry copy-out (hit) shows up alone.
  const bool timed = obs::metrics_enabled();
  const auto probe_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
  const auto probe_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - probe_start)
        .count();
  };
  std::shared_ptr<const CachedSolve> core = cache->find_or_solve(
      key,
      [&] {
        if (timed) obs::record_latency("cache.find.miss.ns", probe_ns());
        return solve();
      },
      &hit);
  if (timed && hit) obs::record_latency("cache.find.hit.ns", probe_ns());
  return core;
}

// A shaped request with a permuted alpha must satisfy the BankMapping
// injectivity precondition; otherwise it is solved again on the identity
// canonical form (strictly fewer cache sharing opportunities, same
// guarantees as the pre-cache solver).
bool needs_identity_order(const PartitionRequest& request, bool identity_perm,
                          std::span<const Count> alpha,
                          const CachedSolve& core) {
  const bool folds = core.constraint.fold_factor > 1;
  return request.array_shape.has_value() && !identity_perm &&
         !remap_injective(*request.array_shape, alpha.back(),
                          core.constraint.num_banks,
                          folds ? core.search.num_banks : 0, request.tail);
}

// Rehydrates the per-request solution around the canonical core; `out`
// already holds the request's transform (alpha) and transformed (z)
// values. Every assignment reuses `out`'s existing buffer capacity, so a
// warm hit allocates nothing. Charges no arithmetic.
void rehydrate(const PartitionRequest& request, const CachedSolve& core,
               PartitionSolution& out) {
  out.search = core.search;
  out.constraint = core.constraint;
  out.bank_bandwidth = request.bank_bandwidth;

  // Final per-offset bank indices, through the fold when one is active.
  const bool folds = core.constraint.fold_factor > 1;
  const Count modulus =
      folds ? core.search.num_banks : core.constraint.num_banks;
  out.pattern_banks.resize(out.transformed.size());  // mempart-analyze: allow(noalloc) caller-owned output buffer; warm solve_into reuses its capacity (pinned by the zero-alloc cache test)
  for (size_t i = 0; i < out.transformed.size(); ++i) {
    Count bank = euclid_mod(out.transformed[i], modulus);
    if (folds) bank = euclid_mod(bank, core.constraint.num_banks);
    out.pattern_banks[i] = bank;
  }

  out.mapping.reset();
  if (request.array_shape.has_value()) {
    obs::Span stage("partitioner.mapping");
    BankMapping::Options options;
    options.num_banks = out.constraint.num_banks;
    options.fold_modulus = folds ? out.search.num_banks : 0;
    options.tail = request.tail;
    out.mapping.emplace(*request.array_shape, out.transform, options);  // mempart-analyze: allow(noalloc) mapping stage runs only for shaped requests; the warm unshaped path never reaches it
  }
}

}  // namespace

Count PartitionSolution::access_cycles() const {
  return ceil_div(constraint.delta_ii + 1, bank_bandwidth);
}

Count PartitionSolution::storage_overhead_elements() const {
  MEMPART_REQUIRE(mapping.has_value(),
                  "PartitionSolution: no mapping (array_shape was not given)");
  return mapping->storage_overhead_elements();
}

std::string PartitionSolution::summary() const {
  std::ostringstream os;
  os << "banks=" << num_banks();
  if (constraint.fold_factor > 1) {
    os << " (folded from " << search.num_banks
       << ", F=" << constraint.fold_factor << ')';
  } else if (num_banks() != search.num_banks) {
    os << " (same-size, Nf=" << search.num_banks << ')';
  }
  os << " delta_II=" << delta_ii() << ' ' << transform.to_string();
  if (mapping.has_value()) {
    os << " overhead=" << mapping->storage_overhead_elements() << " elements";
  }
  os << " ops=" << ops.arithmetic();
  return os.str();
}

void Partitioner::solve_impl(const PartitionRequest& request,
                             SolveCache* cache, Canonicalizer& canon,
                             BankSearchScratch& scratch,
                             std::vector<std::int64_t>& key,
                             PartitionSolution& out) {
  validate(request);
  const Pattern& pattern = *request.pattern;

  obs::Span span("partitioner.solve");
  span.arg("m", pattern.size()).arg("rank", pattern.rank());
  obs::LatencyTimer timer("partitioner.solve.ns");

  OpScope scope;

  bool allow_permutation = true;
  for (;;) {
    // Stage 1 (§4.1 generalised): canonicalize — translation-normalise,
    // sort dimensions by extent, derive the mixed-radix alpha rehydrated
    // into the caller's dimension order, and produce the transformed values
    // z(i) plus their sorted multiset (the canonical key / solver input).
    Canonicalizer::View view;
    {
      obs::Span stage("partitioner.transform");
      view = canon.run(pattern, allow_permutation);
    }

    if (cache != nullptr) {
      key.clear();
      append_key(request, view, allow_permutation, key);
    }
    bool hit = false;
    const std::shared_ptr<const CachedSolve> core = find_or_solve_core(
        cache, key, request, view.sorted_values, scratch, hit);

    if (needs_identity_order(request, view.identity_perm, view.alpha,
                             *core)) {
      allow_permutation = false;
      obs::count("partitioner.identity_fallbacks");
      continue;
    }

    out.transform.assign(view.alpha);
    out.transformed.assign(view.values.begin(), view.values.end());
    rehydrate(request, *core, out);

    out.ops = scope.tally();
    span.arg("banks", out.num_banks()).arg("delta_ii", out.delta_ii());
    span.arg("cache", hit ? "hit" : (cache != nullptr ? "miss" : "off"));
    obs::record_op_tally(out.ops);
    obs::count("partitioner.solves");
    return;
  }
}

PartitionSolution Partitioner::solve(const PartitionRequest& request) {
  Canonicalizer canon;
  BankSearchScratch scratch;
  std::vector<std::int64_t> key;
  PartitionSolution out;
  solve_impl(request, /*cache=*/nullptr, canon, scratch, key, out);
  return out;
}

Partitioner::Partitioner(SolveCache* cache) : cache_(cache) {}

PartitionSolution Partitioner::solve_cached(const PartitionRequest& request) {
  PartitionSolution out;
  solve_into(request, out);
  return out;
}

void Partitioner::solve_into(const PartitionRequest& request,
                             PartitionSolution& out) {
  solve_impl(request, cache_, canon_, search_scratch_, key_, out);
}

void Partitioner::solve_classes(std::span<const PartitionRequest> requests,
                                ThreadPool& pool, Count min_grain,
                                size_t round_begin) {
  const Count count = static_cast<Count>(classes_.size() - round_begin);
  if (count == 0) return;
  pool.parallel_for_chunked(count, min_grain, [&](Count begin, Count end) {
    // Worker-thread chunks get their own span + latency sample, so a trace
    // shows per-chunk occupancy and the histogram shows chunk skew (p50 vs
    // p99 chunk time) across the pool.
    obs::Span chunk_span("partitioner.solve_many.prime");
    chunk_span.arg("begin", begin).arg("end", end);
    obs::LatencyTimer chunk_timer("partitioner.solve_many.chunk.ns");
    const obs::FlightQuietScope quiet;
    // One executor runs every chunk on this thread, in turn, so it can
    // reuse the instance's warm scratch.
    BankSearchScratch chunk_scratch;
    BankSearchScratch& scratch =
        pool.size() == 1 ? search_scratch_ : chunk_scratch;
    for (Count c = begin; c < end; ++c) {
      BatchClass& cls = classes_[round_begin + static_cast<size_t>(c)];
      const std::span<const std::int64_t> key(
          key_arena_.data() + cls.key_offset, cls.key_size);
      try {
        const OpScope scope;
        cls.core = find_or_solve_core(
            cache_, key, requests[static_cast<size_t>(cls.first)],
            sorted_values_of(key), scratch, cls.hit);
        cls.solve_ops = scope.tally();
      } catch (const Error& error) {
        cls.error = error.what();
      }
    }
  });
}

std::vector<BatchResult> Partitioner::solve_many_collect(
    std::span<const PartitionRequest> requests, const BatchOptions& options) {
  MEMPART_REQUIRE(options.min_grain >= 1,
                  "Partitioner::solve_many: min_grain must be >= 1");
  const Count n = static_cast<Count>(requests.size());
  std::vector<BatchResult> results(requests.size());
  if (n == 0) return results;

  obs::Span span("partitioner.solve_many");
  span.arg("requests", n);
  obs::LatencyTimer timer("partitioner.solve_many.ns");

  const Count threads =
      options.threads == 0 ? default_thread_count() : options.threads;
  ThreadPool pool(threads);

  key_arena_.clear();
  classes_.clear();
  members_.assign(requests.size(), BatchMember{});
  // Each round's class index: a power of two at least twice its requests,
  // probed linearly.
  size_t round_begin = 0;
  const auto open_round = [&](size_t requests_in_round) {
    round_begin = classes_.size();
    size_t slots = 16;
    while (slots < 2 * requests_in_round) slots *= 2;
    class_slots_.assign(slots, -1);
  };
  // Appends request `i`'s key to the arena and returns the index of its
  // class, opening a new class when no class of this round has that key.
  const auto join_class = [&](const PartitionRequest& request,
                              const Canonicalizer::View& view,
                              bool allow_permutation, Count i) -> Count {
    const size_t offset = key_arena_.size();
    append_key(request, view, allow_permutation, key_arena_);
    const std::span<const std::int64_t> key(key_arena_.data() + offset,
                                            key_arena_.size() - offset);
    const std::uint64_t hash = SolveCache::hash_key(key);
    const size_t mask = class_slots_.size() - 1;
    for (size_t slot = static_cast<size_t>(hash) & mask;;
         slot = (slot + 1) & mask) {
      const std::int32_t index = class_slots_[slot];
      if (index < 0) {
        class_slots_[slot] = static_cast<std::int32_t>(classes_.size());
        BatchClass& fresh = classes_.emplace_back();
        fresh.key_offset = offset;
        fresh.key_size = key.size();
        fresh.hash = hash;
        fresh.first = i;
        return static_cast<Count>(classes_.size() - 1);
      }
      const BatchClass& known = classes_[static_cast<size_t>(index)];
      if (known.hash == hash && known.key_size == key.size() &&
          std::equal(key.begin(), key.end(),
                     key_arena_.begin() +
                         static_cast<std::ptrdiff_t>(known.key_offset))) {
        key_arena_.resize(offset);  // a duplicate keeps no copy of its key
        return index;
      }
    }
  };

  // Canonicalizes requests `indices` (sequentially, on the instance's
  // canonicalizer), writes each one's alpha and z values straight into its
  // result, and joins each to its class of this round. A request the
  // canonicalizer rejects (malformed, or overflowing the 64-bit weight
  // space) takes its error slot here.
  const auto canonicalize_all = [&](std::span<const Count> indices,
                                    bool allow_permutation) {
    obs::Span stage("partitioner.solve_many.canonicalize");
    if (!allow_permutation) stage.arg("round", "identity");
    obs::LatencyTimer stage_timer("partitioner.solve_many.canonicalize.ns");
    open_round(indices.size());
    for (const Count i : indices) {
      const PartitionRequest& request = requests[static_cast<size_t>(i)];
      BatchResult& slot = results[static_cast<size_t>(i)];
      BatchMember& member = members_[static_cast<size_t>(i)];
      try {
        validate(request);
        const OpScope scope;
        const Canonicalizer::View view =
            canon_.run(*request.pattern, allow_permutation);
        PartitionSolution& out =
            slot.solution ? *slot.solution : slot.solution.emplace();
        out.transform.assign(view.alpha);
        out.transformed.assign(view.values.begin(), view.values.end());
        member.ops += scope.tally();
        const Count cls = join_class(request, view, allow_permutation, i);
        if (allow_permutation) {
          member.permuted_class = cls;
          member.identity_perm = view.identity_perm;
          continue;
        }
        member.identity_class = cls;
        // The warm-up reached this class if it solved some class's first
        // request, and that request fell back to this identity class.
        const BatchClass& permuted =
            classes_[static_cast<size_t>(member.permuted_class)];
        if (permuted.first == i && permuted.warmed) {
          classes_[static_cast<size_t>(cls)].warmed = true;
        }
      } catch (const Error& error) {
        slot.solution.reset();
        slot.error = error.what();
      }
    }
    stage.arg("classes", static_cast<Count>(classes_.size() - round_begin));
  };

  // The solve arithmetic request `i` is charged for `cls` (see solve_many).
  const auto charged = [&](const BatchClass& cls, Count i) {
    return cache_ == nullptr || (!cls.warmed && cls.first == i)
               ? cls.solve_ops
               : OpTally{};
  };
  // Rehydrates request `i` from its class of this round. In the permuted
  // round, a request whose alpha fails the mapping precondition is only
  // marked for the identity round.
  const auto rehydrate_member = [&](Count i, bool identity_round) {
    BatchResult& slot = results[static_cast<size_t>(i)];
    BatchMember& member = members_[static_cast<size_t>(i)];
    const PartitionRequest& request = requests[static_cast<size_t>(i)];
    const BatchClass& cls = classes_[static_cast<size_t>(
        identity_round ? member.identity_class : member.permuted_class)];
    if (!cls.error.empty()) {
      slot.solution.reset();
      slot.error = cls.error;
      return;
    }
    PartitionSolution& out = *slot.solution;
    if (!identity_round &&
        needs_identity_order(request, member.identity_perm,
                             out.transform.alpha(), *cls.core)) {
      member.retry = true;
      return;
    }
    try {
      rehydrate(request, *cls.core, out);
    } catch (const Error& error) {
      slot.solution.reset();
      slot.error = error.what();
      return;
    }
    const BatchClass& permuted =
        classes_[static_cast<size_t>(member.permuted_class)];
    out.ops = member.ops;
    out.ops += charged(permuted, i);
    if (identity_round) out.ops += charged(cls, i);
    slot.cache_hit = permuted.hit && cls.hit;
    obs::record_op_tally(out.ops);
    obs::count("partitioner.solves");
  };
  // One class round over requests `pending`: canonicalize, probe or solve
  // each class once, rehydrate the requests that canonicalized.
  std::vector<Count> pending;
  const auto run_round = [&](bool identity_round) {
    canonicalize_all(pending, /*allow_permutation=*/!identity_round);
    if (!identity_round) {
      // The reference run's warm-up solves each class's first request when
      // there is more than one class (see solve_many).
      for (BatchClass& cls : classes_) cls.warmed = classes_.size() > 1;
      span.arg("classes", static_cast<Count>(classes_.size()));
    }
    solve_classes(requests, pool, options.min_grain, round_begin);
    std::erase_if(pending, [&](Count i) {
      return !results[static_cast<size_t>(i)].ok();
    });
    pool.parallel_for_chunked(
        static_cast<Count>(pending.size()), options.min_grain,
        [&](Count begin, Count end) {
          obs::Span chunk_span("partitioner.solve_many.rehydrate");
          chunk_span.arg("begin", begin).arg("end", end);
          obs::LatencyTimer chunk_timer("partitioner.solve_many.chunk.ns");
          const obs::FlightQuietScope quiet;
          for (Count k = begin; k < end; ++k) {
            rehydrate_member(pending[static_cast<size_t>(k)], identity_round);
          }
        });
  };

  // Round 1: every request, in its permuted canonical order.
  pending.resize(requests.size());
  std::iota(pending.begin(), pending.end(), Count{0});
  run_round(/*identity_round=*/false);

  // Round 2: requests whose permuted alpha failed the mapping precondition
  // are canonicalized again in caller dimension order, keyed with the
  // permutation flag 0.
  std::erase_if(pending, [&](Count i) {
    return !members_[static_cast<size_t>(i)].retry;
  });
  if (!pending.empty()) {
    obs::count("partitioner.identity_fallbacks",
               static_cast<std::int64_t>(pending.size()));
    run_round(/*identity_round=*/true);
  }
  return results;
}

std::vector<PartitionSolution> Partitioner::solve_many(
    std::span<const PartitionRequest> requests, const BatchOptions& options) {
  std::vector<BatchResult> collected = solve_many_collect(requests, options);
  std::vector<PartitionSolution> out;
  out.reserve(collected.size());
  for (size_t i = 0; i < collected.size(); ++i) {
    if (!collected[i].ok()) {
      std::ostringstream os;
      os << "Partitioner::solve_many: request " << i << ": "
         << collected[i].error;
      throw InvalidArgument(os.str());
    }
    out.push_back(std::move(*collected[i].solution));
  }
  return out;
}

}  // namespace mempart
