// Always-on crash flight recorder: the last N trace events per thread.
//
// Traces and metrics answer "what happened" only when someone asked up
// front; a crashed fuzz run or batch job answers with nothing. The flight
// recorder closes that gap: every thread owns a fixed-capacity ring of
// recent events (span begin/end, counter deltas, user notes) that is
// recorded into unconditionally — no env var, no flag — and dumped as
// Chrome-trace-compatible JSON from the crash/terminate handlers and the
// differential-fuzz failure path, so a post-mortem always ships with its
// last moments of context. A thread's ring outlives the thread only among
// the few most recently exited ones, so thread churn (a pool built per
// call) does not grow memory.
//
// Cost discipline. Event names are interned once into small integer ids
// (global table, thread-local cache), so recording is: one relaxed load of
// the capacity, a thread-local ring lookup, a steady-clock read, and five
// relaxed/release atomic stores into a preallocated slot. A disabled
// recorder (capacity 0) costs one relaxed atomic load and a branch.
//
// Concurrency. Only the owning thread writes its ring; dumpers read every
// ring through a per-slot sequence stamp (write: seq=0, fields, seq=n
// release; read: seq acquire, fields, seq re-check) so a torn slot is
// detected and skipped instead of mis-read. Everything is atomics — the
// record/dump race is TSan-clean and exercised by tests/obs.
//
// Knobs: MEMPART_FLIGHT_CAPACITY (events per thread, default 2048, 0
// disables), MEMPART_FLIGHT_DIR (crash-dump directory, default cwd). See
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mempart::obs {

/// Per-thread ring capacity when MEMPART_FLIGHT_CAPACITY is unset.
inline constexpr Count kDefaultFlightCapacity = 2048;

/// How many exited threads keep their ring for dumps: the most recently
/// exited ones. Older rings are released.
inline constexpr Count kRetainedExitedFlightRings = 8;

enum class FlightKind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kCounter = 2,
  kNote = 3,
};

/// One decoded ring entry, as returned by flight_events().
struct FlightEvent {
  FlightKind kind = FlightKind::kNote;
  std::string name;
  std::int64_t value = 0;  ///< counter delta / note value; 0 for spans
  std::int64_t t_ns = 0;   ///< steady-clock ns since the recorder epoch
  std::uint64_t seq = 0;   ///< per-thread sequence number, 1-based
  int thread_id = 0;       ///< small sequential id per recorded thread
};

/// True when recording is on (capacity > 0). One relaxed atomic load.
[[nodiscard]] bool flight_enabled() noexcept;

/// Events retained per thread. Seeded from MEMPART_FLIGHT_CAPACITY.
[[nodiscard]] Count flight_capacity() noexcept;

/// Overrides the capacity. Applies to rings created afterwards (each
/// thread's ring is sized at its first record); 0 disables recording
/// everywhere immediately.
void set_flight_capacity(Count events_per_thread) noexcept;

/// Interns `name`, returning its stable id (> 0). Cached thread-locally,
/// so repeat calls with the same name skip the global table.
[[nodiscard]] std::uint32_t flight_intern(std::string_view name);

/// Records one event into the calling thread's ring. No-op when disabled
/// or when name_id is 0.
void flight_record(FlightKind kind, std::uint32_t name_id,
                   std::int64_t value = 0) noexcept;

/// Convenience: intern + record a user note.
void flight_note(std::string_view name, std::int64_t value = 0);

/// True while a FlightQuietScope is alive on this thread. One thread-local
/// load — checked by the span/counter feeds before they intern anything.
[[nodiscard]] bool flight_quiet() noexcept;

/// Marks the rest of the enclosing scope as detail on this thread: spans,
/// counters, and notes inside it skip the flight ring (traces and metrics
/// are unaffected). Hot loops that process many items per narrative event
/// use this so the always-on recorder prices per-batch, not per-item —
/// declare it after recording the loop's own span, and the ring keeps the
/// coarse story. Nests; not copyable or movable.
class FlightQuietScope {
 public:
  FlightQuietScope() noexcept;
  ~FlightQuietScope();
  FlightQuietScope(const FlightQuietScope&) = delete;
  FlightQuietScope& operator=(const FlightQuietScope&) = delete;
};

/// Decodes the ring of every live thread and of the most recently exited
/// threads, oldest event first per thread. Slots being overwritten
/// mid-read are skipped.
[[nodiscard]] std::vector<FlightEvent> flight_events();

/// Renders flight_events() as Chrome trace-event JSON (ph B/E for spans,
/// C for counters, i for notes) loadable in chrome://tracing / Perfetto.
[[nodiscard]] std::string flight_dump_json();

/// Writes flight_dump_json() to `path` (best effort: returns false instead
/// of throwing, so the crash path never recurses into error handling).
bool flight_dump_to_file(const std::string& path) noexcept;

/// Where the crash handlers write their dump:
/// <MEMPART_FLIGHT_DIR or '.'>/mempart_flight_<pid>.json, unless
/// overridden by set_flight_dump_path().
[[nodiscard]] std::string flight_dump_path();
void set_flight_dump_path(std::string path);

/// Installs the SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT handlers and the
/// std::terminate hook: each dumps the flight recorder to
/// flight_dump_path(), then re-raises the default behaviour. Idempotent.
/// Best effort by design — the dump allocates, which is not strictly
/// async-signal-safe; acceptable for a post-mortem artifact of a process
/// that is dying anyway.
void install_flight_crash_handler();

/// Drops all rings and interned names (tests). Quiesce recording threads
/// first: their cached ring/name ids are invalidated.
void flight_clear();

}  // namespace mempart::obs
