// Public facade of the mempart core: one call from pattern to solution.
//
// Mirrors Problem 1 of the paper: given a pattern P accessing m elements,
// find (B, F) minimising (1) the additional initiation interval delta_P,
// (2) the bank count N, and (3) the storage overhead Delta W, subject to
// address uniqueness and N <= N_max. The solver follows the paper's
// optimisation order — delta_P first (via the closed-form transform and
// Algorithm 1), then N (via the N_max constraint strategy), with Delta W
// fixed by the tail policy.
//
// Typical use:
//
//   PartitionRequest req;
//   req.pattern = patterns::log5x5();
//   req.array_shape = NdShape({640, 480});
//   req.max_banks = 10;
//   req.strategy = ConstraintStrategy::kSameSize;
//   PartitionSolution sol = Partitioner::solve(req);
//   sol.mapping->bank_of({3, 7});   // -> bank index
//
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/nd.h"
#include "common/op_counter.h"
#include "common/types.h"
#include "core/bank_constraint.h"
#include "core/bank_mapping.h"
#include "core/bank_search.h"
#include "core/linear_transform.h"
#include "core/solve_cache.h"
#include "pattern/canonical.h"
#include "pattern/pattern.h"

namespace mempart {

class ThreadPool;

/// Inputs of Problem 1.
struct PartitionRequest {
  /// The access pattern P (required).
  std::optional<Pattern> pattern;

  /// The concrete array to map; when set, the solution carries a full
  /// BankMapping and storage-overhead figures.
  std::optional<NdShape> array_shape;

  /// N_max; 0 means unconstrained.
  Count max_banks = 0;

  /// Bank bandwidth B (§3): accesses each physical bank serves per cycle.
  /// With B > 1 the solver combines B conflict-free banks into one (§5.1's
  /// "reduce bank number from 13 to 7" example), keeping single-cycle
  /// access as long as no tighter N_max forces further folding.
  Count bank_bandwidth = 1;

  /// How to respect N_max when N_f exceeds it.
  ConstraintStrategy strategy = ConstraintStrategy::kFastFold;

  /// Tail handling of the intra-bank mapping (kCompact requires an
  /// unconstrained or same-size solution; folding needs padding).
  TailPolicy tail = TailPolicy::kPadded;
};

/// Everything the solver derived. Plain data; members are documented where
/// their types are defined.
struct PartitionSolution {
  LinearTransform transform;       ///< the §4.1 closed-form alpha
  BankSearchResult search;         ///< Algorithm 1 output (N_f, Q, M, C)
  ConstrainedBanks constraint;     ///< N_c / fold factor / delta_P / sweep
  std::vector<Address> transformed;///< z(i) per pattern offset
  std::vector<Count> pattern_banks;///< final bank index per pattern offset
  std::optional<BankMapping> mapping;  ///< set iff array_shape was given
  OpTally ops;                     ///< arithmetic charged while solving
  Count bank_bandwidth = 1;        ///< B the solution was sized for

  /// Bank count of the final solution (N_c; equals N_f when unconstrained).
  [[nodiscard]] Count num_banks() const { return constraint.num_banks; }

  /// delta_P of the final solution: worst per-bank collisions minus one.
  [[nodiscard]] Count delta_ii() const { return constraint.delta_ii; }

  /// Cycles to fetch all m pattern elements: ceil((delta_P + 1) / B).
  [[nodiscard]] Count access_cycles() const;

  /// Storage overhead in elements; requires a mapping (array_shape given).
  [[nodiscard]] Count storage_overhead_elements() const;

  [[nodiscard]] std::string summary() const;
};

/// Scheduling knobs of Partitioner::solve_many.
struct BatchOptions {
  Count threads = 0;     ///< executors; 0 = default_thread_count()
  Count min_grain = 16;  ///< minimum requests per scheduled chunk
};

/// One slot of solve_many_collect: either a solution or the what() of the
/// mempart::Error that request raised.
struct BatchResult {
  std::optional<PartitionSolution> solution;
  std::string error;

  /// True when the batch's probe found the request's canonical class (and,
  /// for an identity-order retry, its identity class too) resident — i.e.
  /// the request waited on no cold solve. False for cold classes
  /// (including every duplicate of one: they all share its one solve),
  /// for a class another caller was solving when probed, and whenever no
  /// cache is bound. Lets serving layers report hit and miss latency as
  /// separate series instead of a bimodal blur.
  bool cache_hit = false;

  [[nodiscard]] bool ok() const { return solution.has_value(); }
};

/// Solver entry point.
///
/// The static solve() is the stateless single-request API. A Partitioner
/// *instance* adds the throughput machinery on top of the very same
/// pipeline: a canonical solution cache (pattern/canonical.h describes the
/// equivalence classes) and a batch API that dedups canonically equal
/// requests and fans distinct solves over a thread pool. Cached and
/// uncached paths share one implementation, so a cache hit returns, field
/// for field, what the direct solve computes (ops excepted: a hit honestly
/// reports the smaller amount of arithmetic it performed).
///
/// Instances hold per-solve scratch buffers and are therefore NOT
/// thread-safe; the SolveCache they share is. solve_many hands each worker
/// chunk its own scratch internally.
class Partitioner {
 public:
  /// Solves Problem 1 for `request`. Throws InvalidArgument on a missing or
  /// malformed pattern, or an array_shape whose rank differs from the
  /// pattern's. Records the arithmetic spent into `solution.ops`.
  [[nodiscard]] static PartitionSolution solve(const PartitionRequest& request);

  /// Binds the instance to `cache` (nullptr = solve uncached but keep the
  /// scratch reuse). The default shares the process-wide SolveCache.
  explicit Partitioner(SolveCache* cache = &SolveCache::global());

  /// Like solve(), but consults/populates the bound cache.
  [[nodiscard]] PartitionSolution solve_cached(const PartitionRequest& request);

  /// solve_cached() into a caller-owned solution, reusing its buffers. On a
  /// warm cache hit for a request without array_shape this performs zero
  /// heap allocations (verified by tests/core/solve_cache_test.cpp, audited
  /// statically by mempart_analyze's noalloc rule).
  MEMPART_NOALLOC void solve_into(const PartitionRequest& request,
                                  PartitionSolution& out);

  /// Solves a batch: each request is canonicalized once, canonically equal
  /// requests are deduplicated into classes, each class is probed (and on
  /// a miss solved) once, the distinct solves fan out over a ThreadPool in
  /// chunks of at least options.min_grain, and every request is rehydrated
  /// from its class. Results come back in input order — the output is
  /// byte-identical at any thread count. A request's ops are what
  /// solve_cached() would charge it if the batch ran request by request
  /// in input order after a warm-up that solves each class's first
  /// request (skipped for a single-class batch): its canonicalizations,
  /// plus a class solve only where that run would pay it on the request's
  /// behalf — always without a cache. Throws the first (by input order)
  /// error after the batch drains.
  [[nodiscard]] std::vector<PartitionSolution> solve_many(
      std::span<const PartitionRequest> requests,
      const BatchOptions& options = {});

  /// solve_many that reports per-request errors instead of throwing, for
  /// callers streaming untrusted requests (`mempart batch`).
  [[nodiscard]] std::vector<BatchResult> solve_many_collect(
      std::span<const PartitionRequest> requests,
      const BatchOptions& options = {});

  [[nodiscard]] SolveCache* cache() const { return cache_; }

 private:
  /// One distinct canonical class of a solve_many_collect round.
  struct BatchClass {
    size_t key_offset = 0;  ///< the key's words in key_arena_
    size_t key_size = 0;
    std::uint64_t hash = 0;
    Count first = 0;        ///< first member request, input order
    /// Whether the request-by-request reference run (see solve_many)
    /// solves this class in its warm-up, i.e. charges no member for it.
    bool warmed = false;
    bool hit = false;       ///< resident when probed
    std::shared_ptr<const CachedSolve> core;
    OpTally solve_ops;      ///< this call's solve of it; zero on a hit
    std::string error;      ///< what() of a failed solve
  };

  /// Per-request state of a solve_many_collect call.
  struct BatchMember {
    Count permuted_class = -1;  ///< class index in the permuted round
    Count identity_class = -1;  ///< class index in the identity round
    OpTally ops;                ///< canonicalization arithmetic so far
    bool identity_perm = true;  ///< the permuted round's perm was identity
    bool retry = false;         ///< needs the identity-order round
  };

  /// The single-request pipeline: canonicalize -> cache lookup or
  /// canonical solve -> rehydrate -> mapping. Static solve() passes
  /// cache = nullptr.
  static void solve_impl(const PartitionRequest& request, SolveCache* cache,
                         Canonicalizer& canon, BankSearchScratch& scratch,
                         std::vector<std::int64_t>& key,
                         PartitionSolution& out);

  /// Probes, and on a miss solves, classes_[round_begin..) over `pool`.
  void solve_classes(std::span<const PartitionRequest> requests,
                     ThreadPool& pool, Count min_grain, size_t round_begin);

  SolveCache* cache_ = nullptr;
  Canonicalizer canon_;
  BankSearchScratch search_scratch_;
  std::vector<std::int64_t> key_;

  // solve_many_collect scratch, kept so its capacity is reused per call.
  std::vector<std::int64_t> key_arena_;  ///< every class key of a call
  std::vector<BatchClass> classes_;
  std::vector<std::int32_t> class_slots_;  ///< open-addressed class index
  std::vector<BatchMember> members_;
};

}  // namespace mempart
