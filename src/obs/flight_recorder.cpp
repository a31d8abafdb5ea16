#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "common/annotations.h"
#include "common/env.h"
#include "common/errors.h"
#include "common/json.h"

namespace mempart::obs {
namespace {

constexpr Count kDefaultCapacity = kDefaultFlightCapacity;

/// One recorded slot. Writers stamp seq 0 -> fields -> seq n (release);
/// readers accept a slot only when seq reads the same non-zero value before
/// and after the field loads.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::int64_t> t_ns{0};
  std::atomic<std::int64_t> value{0};
  std::atomic<std::uint32_t> name_id{0};
  std::atomic<std::uint8_t> kind{0};
};

struct ThreadRing {
  ThreadRing(size_t capacity_in, int thread_id_in, std::uint64_t generation_in,
             std::chrono::steady_clock::time_point epoch_in)
      : slots(new Slot[capacity_in]),
        capacity(capacity_in),
        thread_id(thread_id_in),
        generation(generation_in),
        epoch(epoch_in) {}
  std::unique_ptr<Slot[]> slots;
  size_t capacity;
  int thread_id;
  std::uint64_t generation;
  /// Copy of the global epoch so the record path never touches the
  /// FlightState singleton.
  std::chrono::steady_clock::time_point epoch;
  /// Next sequence number to write (1-based). Only the owner thread
  /// stores; dumpers load to find the live window.
  std::atomic<std::uint64_t> next_seq{1};
};

/// Heterogeneous string hashing: intern lookups take the caller's
/// string_view directly instead of materialising a std::string per event
/// (that allocation dominated the record cost for non-SSO names).
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};
using NameIdMap =
    std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

Count parse_capacity_env() noexcept {
  // The record paths below are noexcept (they run inside crash handlers),
  // so a malformed MEMPART_FLIGHT_CAPACITY cannot propagate from here: print
  // the diagnostic once and keep the default so crash dumps still work. CLI
  // entry points reject the same bad value up front via validate_env().
  try {
    return env_count("MEMPART_FLIGHT_CAPACITY", kDefaultCapacity, 0,
                     kMaxEnvFlightCapacity);
  } catch (const Error& error) {
    std::fprintf(stderr, "mempart: %s (flight recorder keeping default %lld)\n",
                 error.what(), static_cast<long long>(kDefaultCapacity));
    return kDefaultCapacity;
  }
}

std::atomic<std::int64_t> g_capacity{-1};  // -1 = env not read yet
/// Bumped by flight_clear(); threads drop cached rings/name ids on mismatch.
std::atomic<std::uint64_t> g_generation{1};
std::atomic<int> g_next_thread_id{1};

Count capacity_now() noexcept {
  std::int64_t cap = g_capacity.load(std::memory_order_relaxed);
  if (cap < 0) {
    cap = parse_capacity_env();
    g_capacity.store(cap, std::memory_order_relaxed);
  }
  return cap;
}

class FlightState {
 public:
  static FlightState& instance() {
    static FlightState state;
    return state;
  }

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  void register_ring(std::shared_ptr<ThreadRing> ring) {
    const MutexLock lock(mutex_);
    live_rings_.push_back(std::move(ring));
  }

  /// Called as a thread exits: moves its ring to the exited list, which
  /// keeps only the kRetainedExitedFlightRings most recent, so a process
  /// that keeps starting and ending threads (a pool built per call) holds
  /// a bounded number of rings. A ring that flight_clear() already dropped
  /// is not in live_rings_ and is ignored.
  void retire_ring(const ThreadRing* ring) {
    const MutexLock lock(mutex_);
    const auto it =
        std::find_if(live_rings_.begin(), live_rings_.end(),
                     [ring](const auto& live) { return live.get() == ring; });
    if (it == live_rings_.end()) return;
    exited_rings_.push_back(std::move(*it));
    live_rings_.erase(it);
    if (exited_rings_.size() >
        static_cast<size_t>(kRetainedExitedFlightRings)) {
      exited_rings_.pop_front();
    }
  }

  /// The retained exited rings (oldest first), then the live ones.
  std::vector<std::shared_ptr<ThreadRing>> rings() const {
    const MutexLock lock(mutex_);
    std::vector<std::shared_ptr<ThreadRing>> out;
    const std::uint64_t generation =
        g_generation.load(std::memory_order_relaxed);
    for (const auto* list : {&exited_rings_, &live_rings_}) {
      for (const auto& ring : *list) {
        if (ring->generation == generation) out.push_back(ring);
      }
    }
    return out;
  }

  std::uint32_t intern(std::string_view name) {
    const MutexLock lock(mutex_);
    const auto it = name_ids_.find(name);
    if (it != name_ids_.end()) return it->second;
    names_.emplace_back(name);
    const auto id = static_cast<std::uint32_t>(names_.size());
    name_ids_.emplace(names_.back(), id);
    return id;
  }

  std::string name_of(std::uint32_t id) const {
    const MutexLock lock(mutex_);
    if (id == 0 || id > names_.size()) return "<unknown>";
    return names_[id - 1];
  }

  void clear() {
    const MutexLock lock(mutex_);
    live_rings_.clear();
    exited_rings_.clear();
    names_.clear();
    name_ids_.clear();
  }

  void set_dump_path(std::string path) {
    const MutexLock lock(mutex_);
    dump_path_ = std::move(path);
  }

  std::string dump_path() const {
    const MutexLock lock(mutex_);
    if (!dump_path_.empty()) return dump_path_;
    const char* dir = std::getenv("MEMPART_FLIGHT_DIR");
    std::ostringstream os;
    os << (dir != nullptr && dir[0] != '\0' ? dir : ".")
       << "/mempart_flight_" << static_cast<long>(::getpid()) << ".json";
    return os.str();
  }

 private:
  FlightState() : epoch_(std::chrono::steady_clock::now()) {}
  const std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::deque<std::shared_ptr<ThreadRing>> live_rings_
      MEMPART_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<ThreadRing>> exited_rings_
      MEMPART_GUARDED_BY(mutex_);
  /// id - 1 indexes names_; the map holds its own key copies.
  std::vector<std::string> names_ MEMPART_GUARDED_BY(mutex_);
  NameIdMap name_ids_ MEMPART_GUARDED_BY(mutex_);
  std::string dump_path_ MEMPART_GUARDED_BY(mutex_);
};

/// Per-thread cached state, regenerated when flight_clear() bumps the
/// global generation. Its destructor runs at thread exit and hands the
/// ring back to FlightState.
struct ThreadCache {
  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() {
    if (ring != nullptr) FlightState::instance().retire_ring(ring.get());
  }

  std::uint64_t generation = 0;
  std::shared_ptr<ThreadRing> ring;
  NameIdMap name_ids;
};

ThreadCache& thread_cache() {
  thread_local ThreadCache cache;
  const std::uint64_t generation = g_generation.load(std::memory_order_relaxed);
  if (cache.generation != generation) {
    // flight_clear() already dropped this ring and every interned id.
    cache.ring.reset();
    cache.name_ids.clear();
    cache.generation = generation;
  }
  return cache;
}

ThreadRing* ring_for_this_thread() {
  ThreadCache& cache = thread_cache();
  if (cache.ring == nullptr) {
    const Count capacity = capacity_now();
    if (capacity <= 0) return nullptr;
    cache.ring = std::make_shared<ThreadRing>(
        static_cast<size_t>(capacity),
        g_next_thread_id.fetch_add(1, std::memory_order_relaxed),
        cache.generation, FlightState::instance().epoch());
    FlightState::instance().register_ring(cache.ring);
  }
  return cache.ring.get();
}

// ---------------------------------------------------------------------------
// Crash handlers
// ---------------------------------------------------------------------------

std::terminate_handler g_previous_terminate = nullptr;

extern "C" void flight_signal_handler(int signum) {
  // Not strictly async-signal-safe (the dump allocates); best effort for a
  // process that is already dying. Restore default first so a second fault
  // inside the dump terminates instead of recursing.
  std::signal(signum, SIG_DFL);
  (void)flight_dump_to_file(flight_dump_path());
  std::raise(signum);
}

[[noreturn]] void flight_terminate_handler() {
  (void)flight_dump_to_file(flight_dump_path());
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

bool flight_enabled() noexcept { return capacity_now() > 0; }

Count flight_capacity() noexcept { return capacity_now(); }

void set_flight_capacity(Count events_per_thread) noexcept {
  g_capacity.store(events_per_thread < 0 ? 0 : events_per_thread,
                   std::memory_order_relaxed);
}

std::uint32_t flight_intern(std::string_view name) {
  ThreadCache& cache = thread_cache();
  const auto it = cache.name_ids.find(name);
  if (it != cache.name_ids.end()) return it->second;
  const std::uint32_t id = FlightState::instance().intern(name);
  cache.name_ids.emplace(std::string(name), id);
  return id;
}

void flight_record(FlightKind kind, std::uint32_t name_id,
                   std::int64_t value) noexcept {
  if (name_id == 0 || flight_quiet() || capacity_now() <= 0) return;
  ThreadRing* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const std::int64_t t_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ring->epoch)
          .count();
  const std::uint64_t seq = ring->next_seq.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[(seq - 1) % ring->capacity];
  slot.seq.store(0, std::memory_order_release);
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.name_id.store(name_id, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
  ring->next_seq.store(seq + 1, std::memory_order_release);
}

void flight_note(std::string_view name, std::int64_t value) {
  if (!flight_enabled() || flight_quiet()) return;
  flight_record(FlightKind::kNote, flight_intern(name), value);
}

namespace {
/// Depth of live FlightQuietScopes on this thread; > 0 suppresses the ring.
thread_local int t_quiet_depth = 0;
}  // namespace

bool flight_quiet() noexcept { return t_quiet_depth > 0; }

FlightQuietScope::FlightQuietScope() noexcept { ++t_quiet_depth; }

FlightQuietScope::~FlightQuietScope() { --t_quiet_depth; }

std::vector<FlightEvent> flight_events() {
  FlightState& state = FlightState::instance();
  std::vector<FlightEvent> out;
  for (const auto& ring : state.rings()) {
    const std::uint64_t next = ring->next_seq.load(std::memory_order_acquire);
    const std::uint64_t window = std::min<std::uint64_t>(
        next - 1, static_cast<std::uint64_t>(ring->capacity));
    std::vector<FlightEvent> thread_events;
    thread_events.reserve(static_cast<size_t>(window));
    for (std::uint64_t seq = next - window; seq < next; ++seq) {
      const Slot& slot = ring->slots[(seq - 1) % ring->capacity];
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0) continue;
      FlightEvent event;
      event.t_ns = slot.t_ns.load(std::memory_order_relaxed);
      event.value = slot.value.load(std::memory_order_relaxed);
      const std::uint32_t name_id =
          slot.name_id.load(std::memory_order_relaxed);
      event.kind =
          static_cast<FlightKind>(slot.kind.load(std::memory_order_relaxed));
      // Re-check the stamp: an owner overwriting this slot mid-read leaves
      // a different (or zero) value, and the torn slot is dropped.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != before) continue;
      event.seq = before;
      event.thread_id = ring->thread_id;
      event.name = state.name_of(name_id);
      thread_events.push_back(std::move(event));
    }
    std::sort(thread_events.begin(), thread_events.end(),
              [](const FlightEvent& a, const FlightEvent& b) {
                return a.seq < b.seq;
              });
    out.insert(out.end(), std::make_move_iterator(thread_events.begin()),
               std::make_move_iterator(thread_events.end()));
  }
  return out;
}

std::string flight_dump_json() {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const FlightEvent& event : flight_events()) {
    if (!first) os << ',';
    first = false;
    // Chrome trace timestamps are microseconds; keep sub-us precision as a
    // fraction so adjacent events stay ordered.
    char ts[48];
    std::snprintf(ts, sizeof(ts), "%lld.%03lld",
                  static_cast<long long>(event.t_ns / 1000),
                  static_cast<long long>(event.t_ns % 1000));
    os << "\n{\"name\":\"" << json_escape(event.name)
       << "\",\"cat\":\"flight\",\"pid\":1,\"tid\":" << event.thread_id
       << ",\"ts\":" << ts;
    switch (event.kind) {
      case FlightKind::kSpanBegin:
        os << ",\"ph\":\"B\"";
        break;
      case FlightKind::kSpanEnd:
        os << ",\"ph\":\"E\"";
        break;
      case FlightKind::kCounter:
        os << ",\"ph\":\"C\",\"args\":{\"delta\":" << event.value << '}';
        break;
      case FlightKind::kNote:
        os << ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"value\":" << event.value
           << '}';
        break;
    }
    os << '}';
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool flight_dump_to_file(const std::string& path) noexcept {
  try {
    std::ofstream out(path);
    if (!out.good()) return false;
    out << flight_dump_json();
    out.flush();
    return out.good();
  } catch (...) {
    return false;
  }
}

std::string flight_dump_path() {
  return FlightState::instance().dump_path();
}

void set_flight_dump_path(std::string path) {
  FlightState::instance().set_dump_path(std::move(path));
}

void install_flight_crash_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  for (const int signum :
       {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    std::signal(signum, flight_signal_handler);
  }
  g_previous_terminate = std::set_terminate(flight_terminate_handler);
}

void flight_clear() {
  g_generation.fetch_add(1, std::memory_order_relaxed);
  FlightState::instance().clear();
}

}  // namespace mempart::obs
