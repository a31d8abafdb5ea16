#include "core/solve_cache.h"

#include <algorithm>

#include "common/env.h"
#include "common/errors.h"
#include "obs/metrics.h"

namespace mempart {
namespace {

Count round_up_pow2(Count n) {
  Count p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

std::unique_ptr<SolveCache::Table> SolveCache::make_table(Count capacity,
                                                          Count shards) {
  MEMPART_REQUIRE(capacity >= 1, "SolveCache: capacity must be >= 1");
  MEMPART_REQUIRE(shards >= 0, "SolveCache: shards must be >= 0");
  if (shards == 0) {
    shards = env_count("MEMPART_CACHE_SHARDS", 8, 1, kMaxEnvCacheShards);
  }
  // More stripes than entries is pure overhead; cap, then round to a power
  // of two so shard selection is a mask of the key hash.
  shards = round_up_pow2(std::min(shards, capacity));
  auto table = std::make_unique<Table>();
  table->capacity = capacity;
  table->per_shard_capacity = std::max<Count>(1, capacity / shards);
  table->shard_mask = static_cast<size_t>(shards - 1);
  table->shards = std::vector<Shard>(static_cast<size_t>(shards));
  return table;
}

SolveCache::SolveCache(Count capacity, Count shards) {
  std::unique_ptr<Table> table = make_table(capacity, shards);
  table_.store(table.get(), std::memory_order_release);
  const MutexLock lock(tables_mutex_);
  tables_.push_back(std::move(table));
}

void SolveCache::reconfigure(Count capacity, Count shards) {
  // Build the replacement before the swap so a bad capacity/shard request
  // throws without disturbing the live table.
  std::unique_ptr<Table> fresh = make_table(capacity, shards);
  const MutexLock lock(tables_mutex_);
  Table* old = table_.exchange(fresh.get(), std::memory_order_acq_rel);
  tables_.push_back(std::move(fresh));
  retire(*old);
}

void SolveCache::retire(Table& table) {
  for (Shard& shard : table.shards) {
    const MutexLock lock(shard.mutex);
    retired_hits_.fetch_add(shard.hits, std::memory_order_relaxed);
    retired_misses_.fetch_add(shard.misses, std::memory_order_relaxed);
    retired_insertions_.fetch_add(shard.insertions, std::memory_order_relaxed);
    retired_evictions_.fetch_add(shard.evictions, std::memory_order_relaxed);
    shard.hits = shard.misses = shard.insertions = shard.evictions = 0;
    shard.index.clear();
    shard.lru.clear();
  }
}

std::uint64_t SolveCache::hash_key(
    std::span<const std::int64_t> key) noexcept {
  // FNV-1a over the words; good enough dispersion for shard selection and
  // the per-shard hash table, and trivially allocation-free.
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::int64_t word : key) {
    std::uint64_t v = static_cast<std::uint64_t>(word);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= v & 0xffU;
      h *= 1099511628211ULL;
      v >>= 8;
    }
  }
  return h;
}

std::shared_ptr<const CachedSolve> SolveCache::find(
    std::span<const std::int64_t> key) {
  const std::uint64_t hash = hash_key(key);
  Shard& shard = shard_for(table(), hash);
  const KeyRef ref{key.data(), key.size(), hash};
  const MutexLock lock(shard.mutex);
  const auto it = shard.index.find(ref);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  // Refresh recency: splice the node to the front (iterators stay valid, so
  // the index needs no update).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->value;
}

void SolveCache::insert(std::span<const std::int64_t> key,
                        std::shared_ptr<const CachedSolve> value) {
  MEMPART_REQUIRE(value != nullptr, "SolveCache::insert: value must be set");
  const std::uint64_t hash = hash_key(key);
  Table& table = this->table();
  Shard& shard = shard_for(table, hash);
  const MutexLock lock(shard.mutex);
  insert_locked(table, shard, KeyRef{key.data(), key.size(), hash},
                std::move(value));
}

SolveCache::Probe SolveCache::probe_or_claim(
    std::span<const std::int64_t> key) {
  Probe probe;
  probe.hash = hash_key(key);
  probe.table = &table();
  Shard& shard = shard_for(*probe.table, probe.hash);
  const KeyRef ref{key.data(), key.size(), probe.hash};
  UniqueLock lock(shard.mutex);
  for (;;) {
    const auto it = shard.index.find(ref);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      probe.value = it->second->value;
      return probe;
    }
    const auto open = shard.flights.find(ref);
    if (open == shard.flights.end()) {
      // Cold and unclaimed: this caller solves it.
      shard.flights.emplace(ref, std::make_shared<Flight>());  // mempart-analyze: allow(noalloc) claim of a cold key, followed by a cold solve; a warm hit returns above
      ++shard.misses;
      return probe;
    }
    // Another caller is solving this key. Wait for its flight to land; if
    // that solve threw, loop and claim the key (or wait on whoever did).
    const std::shared_ptr<Flight> flight = open->second;
    probe.waited = true;
    while (!flight->done) shard.landed.wait(lock);
    if (flight->value != nullptr) {
      ++shard.hits;
      probe.value = flight->value;
      return probe;
    }
  }
}

void SolveCache::release(const Probe& probe, std::span<const std::int64_t> key,
                         std::shared_ptr<const CachedSolve> value) {
  Shard& shard = shard_for(*probe.table, probe.hash);
  const KeyRef ref{key.data(), key.size(), probe.hash};
  {
    const MutexLock lock(shard.mutex);
    const auto open = shard.flights.find(ref);
    open->second->value = value;
    open->second->done = true;
    shard.flights.erase(open);
    if (value != nullptr) {
      insert_locked(*probe.table, shard, ref, std::move(value));
    }
  }
  shard.landed.notify_all();
}

void SolveCache::insert_locked(const Table& table, Shard& shard,
                               const KeyRef& ref,
                               std::shared_ptr<const CachedSolve> value) {
  const auto it = shard.index.find(ref);
  if (it != shard.index.end()) {
    // A plain insert() raced this key in; keep the first value (both are
    // deterministic solves of the same key) and refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(
      Entry{{ref.data, ref.data + ref.size}, ref.hash, std::move(value)});
  Entry& entry = shard.lru.front();
  shard.index.emplace(KeyRef{entry.key.data(), entry.key.size(), entry.hash},
                      shard.lru.begin());
  ++shard.insertions;
  evict_over_capacity(table, shard);
}

void SolveCache::evict_over_capacity(const Table& table, Shard& shard) {
  while (static_cast<Count>(shard.lru.size()) > table.per_shard_capacity) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(
        KeyRef{victim.key.data(), victim.key.size(), victim.hash});
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

SolveCache::Stats SolveCache::stats() const {
  Stats out;
  const Table& table = this->table();
  out.capacity = table.capacity;
  out.shards = static_cast<Count>(table.shards.size());
  out.hits = retired_hits_.load(std::memory_order_relaxed);
  out.misses = retired_misses_.load(std::memory_order_relaxed);
  out.insertions = retired_insertions_.load(std::memory_order_relaxed);
  out.evictions = retired_evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : table.shards) {
    const MutexLock lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
    out.entries += static_cast<Count>(shard.lru.size());
  }
  return out;
}

void SolveCache::clear() {
  for (Shard& shard : table().shards) {
    const MutexLock lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.hits = shard.misses = shard.insertions = shard.evictions = 0;
  }
  retired_hits_.store(0, std::memory_order_relaxed);
  retired_misses_.store(0, std::memory_order_relaxed);
  retired_insertions_.store(0, std::memory_order_relaxed);
  retired_evictions_.store(0, std::memory_order_relaxed);
}

Count SolveCache::capacity() const { return table().capacity; }

Count SolveCache::shard_count() const {
  return static_cast<Count>(table().shards.size());
}

void SolveCache::publish_stats() const {
  const Stats s = stats();
  obs::gauge("cache.hits", static_cast<double>(s.hits));
  obs::gauge("cache.misses", static_cast<double>(s.misses));
  obs::gauge("cache.insertions", static_cast<double>(s.insertions));
  obs::gauge("cache.evictions", static_cast<double>(s.evictions));
  obs::gauge("cache.entries", static_cast<double>(s.entries));
  obs::gauge("cache.capacity", static_cast<double>(s.capacity));
  obs::gauge("cache.shards", static_cast<double>(s.shards));
}

SolveCache& SolveCache::global() {
  // The env variables only pick the STARTING size; reconfigure() (e.g.
  // `mempart serve --cache-capacity`) can resize the live cache later, so
  // this is no longer first-caller-wins for the lifetime of the process.
  static SolveCache cache(
      env_count("MEMPART_CACHE_CAPACITY", 4096, 1, kMaxEnvCacheCapacity),
      env_count("MEMPART_CACHE_SHARDS", 8, 1, kMaxEnvCacheShards));
  return cache;
}

}  // namespace mempart
