// Sharded, mutex-striped LRU cache of canonical partitioning solves.
//
// The motivation is the service-scale workload of the roadmap: millions of
// solve requests in which most patterns are translates (sliding windows) or
// extent-permutations (layout changes) of a small set of stencils. The
// canonical solve — Algorithm 1's bank search plus the N_max constraint
// stage — depends only on the canonical key (extents + sorted transformed
// values + solver options), so one entry serves the whole equivalence
// class; everything per-request (alpha order, per-offset banks, the
// BankMapping) is cheap to rehydrate and never cached.
//
// Concurrency: the key space is split across shards by key hash, each shard
// holding its own mutex, LRU list and index. Threads solving different
// canonical classes rarely contend; a hit holds one shard mutex for a list
// splice and a shared_ptr copy. Values are immutable and shared, so a hit
// returned to one thread stays valid even if another thread evicts the
// entry a microsecond later. find_or_solve() fills single-flight: the first
// caller to miss a key claims it and solves it with no lock held, and
// concurrent callers with the same key wait for that one solve.
//
// Observability: the cache keeps its own always-on relaxed counters
// (workers run with obs metrics disabled by default, and the counters must
// not depend on the thread-local gate) and publishes them to the obs
// registry as cache.* gauges via publish_stats(); `mempart profile` and
// `mempart batch` include them in the metrics JSON dump.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "core/bank_constraint.h"
#include "core/bank_search.h"

namespace mempart {

/// The canonical-solve payload: everything the solver derives that depends
/// only on the canonical key. Immutable once inserted.
struct CachedSolve {
  BankSearchResult search;     ///< Algorithm 1 on the canonical z values
  ConstrainedBanks constraint; ///< N_max/bandwidth constraint stage output
};

/// Sharded LRU cache keyed on flat canonical key words.
class SolveCache {
 public:
  /// Counter snapshot; totals over all shards since construction/clear().
  /// Through find_or_solve, `misses` counts solves and `hits` counts calls
  /// answered without one (resident, or after waiting on another caller's
  /// solve of the same key).
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    Count entries = 0;   ///< currently resident
    Count capacity = 0;  ///< configured total capacity
    Count shards = 0;    ///< shard count actually used
  };

  /// `capacity` is the total entry budget (minimum 1), split evenly across
  /// `shards` stripes (rounded up to a power of two; 0 reads
  /// MEMPART_CACHE_SHARDS, defaulting to 8).
  explicit SolveCache(Count capacity = 4096, Count shards = 0);
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Atomically replaces the shard table with a freshly sized one
  /// (drain-and-resize): all cached entries are dropped, hit/miss/insert/
  /// evict counters carry over. Thread-safe against concurrent calls —
  /// in-flight calls complete against the table they loaded (an insert
  /// racing the swap may land in the retired table and is simply lost,
  /// which only costs a future re-solve). The retired table's emptied
  /// shell lives until the cache is destroyed, so a call never touches
  /// freed memory; `mempart serve --cache-capacity` reconfigures once.
  void reconfigure(Count capacity, Count shards = 0);

  /// Looks up `key`, refreshing its LRU position. Returns nullptr on miss.
  [[nodiscard]] std::shared_ptr<const CachedSolve> find(
      std::span<const std::int64_t> key);

  /// Inserts (or refreshes) `key` -> `value`, evicting the shard's least
  /// recently used entries beyond its capacity share. Alloc fence: insert
  /// runs only on the cache-miss cold path, never on a warm hit.
  MEMPART_ALLOC_BOUNDARY void insert(std::span<const std::int64_t> key,
                                     std::shared_ptr<const CachedSolve> value);

  /// Returns the entry for `key`, computing it at most once across
  /// concurrent callers. On a miss the first caller claims the key, runs
  /// `solve()` (a callable returning std::shared_ptr<const CachedSolve>)
  /// with no lock held, and fills the entry; callers that arrive while the
  /// claim is open wait for that value instead of solving again. If
  /// `solve()` throws, the claim is released, one waiter claims the key
  /// next, and the exception propagates to this caller. `*hit` (optional)
  /// is true only when the entry was resident: a caller that solved or
  /// waited reports false, since its latency includes a cold solve. A
  /// caller must not hold another claim while it waits, so solve() must
  /// not call find_or_solve itself.
  template <typename Solve>
  std::shared_ptr<const CachedSolve> find_or_solve(
      std::span<const std::int64_t> key, Solve&& solve, bool* hit = nullptr) {
    Probe probe = probe_or_claim(key);
    if (hit != nullptr) *hit = probe.value != nullptr && !probe.waited;
    if (probe.value != nullptr) return std::move(probe.value);
    std::shared_ptr<const CachedSolve> value;
    try {
      value = solve();
    } catch (...) {
      release(probe, key, nullptr);
      throw;
    }
    release(probe, key, value);
    return value;
  }

  [[nodiscard]] Stats stats() const;

  /// Drops all entries and zeroes the counters (capacity/shards unchanged).
  void clear();

  /// Writes the current Stats into the obs metrics registry as cache.*
  /// gauges (cache.hits, cache.misses, cache.evictions, cache.insertions,
  /// cache.entries, cache.capacity, cache.shards). Call from a metrics-
  /// enabled thread before exporting; see docs/OBSERVABILITY.md.
  void publish_stats() const;

  [[nodiscard]] Count capacity() const;
  [[nodiscard]] Count shard_count() const;

  /// Process-wide cache used by default-constructed Partitioner instances.
  /// Capacity and shards come from MEMPART_CACHE_CAPACITY (default 4096)
  /// and MEMPART_CACHE_SHARDS (default 8).
  static SolveCache& global();

  /// FNV-1a over the key words (exposed for tests).
  [[nodiscard]] static std::uint64_t hash_key(
      std::span<const std::int64_t> key) noexcept;

 private:
  struct Entry {
    std::vector<std::int64_t> key;
    std::uint64_t hash = 0;
    std::shared_ptr<const CachedSolve> value;
  };
  /// Index key: a view into an Entry's key storage (list nodes are stable)
  /// or, during lookup, into the caller's scratch.
  struct KeyRef {
    const std::int64_t* data = nullptr;
    size_t size = 0;
    std::uint64_t hash = 0;
  };
  struct KeyHash {
    size_t operator()(const KeyRef& ref) const noexcept {
      return static_cast<size_t>(ref.hash);
    }
  };
  struct KeyEq {
    bool operator()(const KeyRef& a, const KeyRef& b) const noexcept {
      return a.size == b.size &&
             std::equal(a.data, a.data + a.size, b.data);
    }
  };
  /// An open claim: the claimant is solving the key. Waiters hold the
  /// shared_ptr, so they read the value even if the entry is evicted
  /// before they wake.
  struct Flight {
    std::shared_ptr<const CachedSolve> value;  ///< null if the solve threw
    bool done = false;
  };
  struct Shard {
    mutable Mutex mutex;
    /// Signalled whenever one of this shard's flights lands.
    std::condition_variable_any landed;
    /// front = most recently used
    std::list<Entry> lru MEMPART_GUARDED_BY(mutex);
    std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyHash, KeyEq>
        index MEMPART_GUARDED_BY(mutex);
    /// Open claims; each KeyRef points into its claimant's key, which
    /// outlives the claim.
    std::unordered_map<KeyRef, std::shared_ptr<Flight>, KeyHash, KeyEq>
        flights MEMPART_GUARDED_BY(mutex);
    std::int64_t hits MEMPART_GUARDED_BY(mutex) = 0;
    std::int64_t misses MEMPART_GUARDED_BY(mutex) = 0;
    std::int64_t insertions MEMPART_GUARDED_BY(mutex) = 0;
    std::int64_t evictions MEMPART_GUARDED_BY(mutex) = 0;
  };

  /// One immutable-shape shard table: reconfigure() swaps the whole table
  /// atomically instead of resizing in place, so a call finds its shard
  /// with one acquire load of the table pointer (per-shard mutexes still
  /// guard the shard contents). Every table ever made stays owned by
  /// tables_ until the cache is destroyed.
  struct Table {
    Count capacity = 0;
    Count per_shard_capacity = 0;
    size_t shard_mask = 0;
    std::vector<Shard> shards;
  };

  /// find_or_solve's probe: the value (resident, or landed while this
  /// caller waited), or — value null — a claim this caller now holds.
  struct Probe {
    Table* table = nullptr;
    std::uint64_t hash = 0;
    std::shared_ptr<const CachedSolve> value;
    bool waited = false;
  };

  [[nodiscard]] static std::unique_ptr<Table> make_table(Count capacity,
                                                         Count shards);
  [[nodiscard]] Table& table() const {
    return *table_.load(std::memory_order_acquire);
  }
  [[nodiscard]] static Shard& shard_for(Table& table, std::uint64_t hash) {
    return table.shards[static_cast<size_t>(hash) & table.shard_mask];
  }

  /// Looks `key` up; on a miss with no open claim, claims it.
  Probe probe_or_claim(std::span<const std::int64_t> key);

  /// Closes the caller's claim: fills the entry with `value`, or (null,
  /// the solve threw) leaves the key absent; either way wakes the waiters.
  /// Alloc fence: runs only after a cold solve.
  MEMPART_ALLOC_BOUNDARY void release(const Probe& probe,
                                      std::span<const std::int64_t> key,
                                      std::shared_ptr<const CachedSolve> value);

  /// Links `key` -> `value` at the front of the LRU unless the key is
  /// already resident, then evicts over capacity. Caller holds the mutex.
  static void insert_locked(const Table& table, Shard& shard,
                            const KeyRef& ref,
                            std::shared_ptr<const CachedSolve> value)
      MEMPART_REQUIRES(shard.mutex);

  /// Pops LRU entries beyond the shard's capacity share. Caller must hold
  /// the shard mutex (enforced at compile time under MEMPART_THREAD_SAFETY).
  static void evict_over_capacity(const Table& table, Shard& shard)
      MEMPART_REQUIRES(shard.mutex);

  /// Folds a retiring table's counters into retired_* so stats() stays
  /// monotonic across reconfigure(), and drops its entries.
  void retire(Table& table);

  std::atomic<Table*> table_{nullptr};
  /// Owns every table made; only construction, reconfigure() and
  /// destruction touch it.
  Mutex tables_mutex_;
  std::vector<std::unique_ptr<Table>> tables_ MEMPART_GUARDED_BY(tables_mutex_);
  /// Counter totals of tables replaced by reconfigure()/clear().
  std::atomic<std::int64_t> retired_hits_{0};
  std::atomic<std::int64_t> retired_misses_{0};
  std::atomic<std::int64_t> retired_insertions_{0};
  std::atomic<std::int64_t> retired_evictions_{0};
};

}  // namespace mempart
