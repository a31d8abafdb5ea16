// Scoped-span tracing: who ran, when, for how long, nested how.
//
// The paper's evaluation is all measurements (Table 1 op counts, §5 storage
// overhead and conflict-free access); this layer makes the repo's own
// runtime behaviour measurable the same way. A Span is an RAII scope that
// records a named, steady-clock-timed interval into the process-wide
// TraceLog; spans nest naturally with C++ scopes and the log can be
// exported as Chrome trace-event JSON (chrome://tracing / Perfetto) or as
// an indented text report (see obs/sinks.h).
//
// Overhead discipline: tracing and metrics are off by default. Each is
// controlled by a thread-local flag seeded from the MEMPART_TRACE /
// MEMPART_METRICS environment variables (any value other than empty or
// "0" enables) or set programmatically via obs::enable() — programmatic
// changes also become the default inherited by threads started later.
// A disabled Span costs one thread-local read and no clock access, so
// instrumentation can stay in hot paths permanently.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"

namespace mempart::obs {

/// True when the calling thread records spans. Seeded from MEMPART_TRACE.
[[nodiscard]] bool tracing_enabled() noexcept;

/// True when the calling thread records metrics. Seeded from MEMPART_METRICS.
[[nodiscard]] bool metrics_enabled() noexcept;

/// Sets the calling thread's tracing flag and the default for new threads.
void set_tracing_enabled(bool on) noexcept;

/// Sets the calling thread's metrics flag and the default for new threads.
void set_metrics_enabled(bool on) noexcept;

/// Convenience: flips tracing and metrics together.
void enable(bool on = true) noexcept;

/// One completed span. Times are microseconds since the TraceLog epoch
/// (the first use of the log in the process), from std::chrono::steady_clock.
struct TraceEvent {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  int thread_id = 0;  ///< small sequential id, 1-based per observed thread
  int depth = 0;      ///< nesting depth at open, 0 = top level
  /// Span arguments; values are pre-rendered JSON (numbers unquoted,
  /// strings quoted and escaped) so sinks can splice them verbatim.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Process-wide, mutex-protected store of completed spans.
class TraceLog {
 public:
  static TraceLog& instance();

  /// Snapshot of all completed events, ordered by (thread_id, start_us).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] Count size() const;

  /// Drops all recorded events (the epoch is kept).
  void clear();

 private:
  friend class Span;
  TraceLog();
  void append(TraceEvent event);

  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ MEMPART_GUARDED_BY(mutex_);
  /// Set once at construction, read without the mutex by ~Span.
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII tracing scope. When tracing is disabled at construction the span is
/// inert: no clock read, no allocation, and arg() is a no-op — except the
/// always-on flight recorder (obs/flight_recorder.h), which records a
/// begin/end pair whenever it is enabled, independent of the tracing flag.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span will be recorded (tracing was on at construction).
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Attaches a named argument shown in the exported trace. Chainable.
  Span& arg(std::string_view key, std::int64_t value);
  Span& arg(std::string_view key, int value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  Span& arg(std::string_view key, double value);
  Span& arg(std::string_view key, std::string_view value);

 private:
  bool active_;
  int depth_ = 0;
  /// Interned flight-recorder name; 0 when the recorder was disabled at
  /// construction (the destructor then records nothing).
  std::uint32_t flight_id_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace mempart::obs
