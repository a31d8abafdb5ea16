#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/flight_recorder.h"

namespace mempart::obs {
namespace {

/// -1 = defer to the environment variable; 0/1 = programmatic override.
std::atomic<int> g_trace_default{-1};
std::atomic<int> g_metrics_default{-1};

bool env_truthy(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         std::string_view(value) != "0";
}

/// Thread-local cached flag: -1 until first query on this thread.
thread_local int t_trace = -1;
thread_local int t_metrics = -1;

bool resolve(int& cached, const std::atomic<int>& fallback,
             const char* env_name) {
  if (cached < 0) {
    const int def = fallback.load(std::memory_order_relaxed);
    cached = def >= 0 ? def : (env_truthy(env_name) ? 1 : 0);
  }
  return cached != 0;
}

std::atomic<int> g_next_thread_id{1};

int this_thread_id() {
  thread_local int id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local int t_depth = 0;

std::string render_number(std::int64_t value) { return std::to_string(value); }

std::string render_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

bool tracing_enabled() noexcept {
  return resolve(t_trace, g_trace_default, "MEMPART_TRACE");
}

bool metrics_enabled() noexcept {
  return resolve(t_metrics, g_metrics_default, "MEMPART_METRICS");
}

void set_tracing_enabled(bool on) noexcept {
  t_trace = on ? 1 : 0;
  g_trace_default.store(t_trace, std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  t_metrics = on ? 1 : 0;
  g_metrics_default.store(t_metrics, std::memory_order_relaxed);
}

void enable(bool on) noexcept {
  set_tracing_enabled(on);
  set_metrics_enabled(on);
}

TraceLog& TraceLog::instance() {
  static TraceLog log;
  return log;
}

TraceLog::TraceLog() : epoch_(std::chrono::steady_clock::now()) {}

void TraceLog::append(TraceEvent event) {
  const MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceLog::events() const {
  std::vector<TraceEvent> snapshot;
  {
    const MutexLock lock(mutex_);
    snapshot = events_;
  }
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.thread_id != b.thread_id) {
                       return a.thread_id < b.thread_id;
                     }
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.depth < b.depth;
                   });
  return snapshot;
}

Count TraceLog::size() const {
  const MutexLock lock(mutex_);
  return static_cast<Count>(events_.size());
}

void TraceLog::clear() {
  const MutexLock lock(mutex_);
  events_.clear();
}

Span::Span(std::string_view name) : active_(tracing_enabled()) {
  if (flight_enabled() && !flight_quiet()) {
    flight_id_ = flight_intern(name);
    flight_record(FlightKind::kSpanBegin, flight_id_);
  }
  if (!active_) return;
  name_.assign(name);
  depth_ = t_depth++;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (flight_id_ != 0) flight_record(FlightKind::kSpanEnd, flight_id_);
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  --t_depth;
  TraceLog& log = TraceLog::instance();
  TraceEvent event;
  event.name = std::move(name_);
  // Truncate both ends against the epoch and subtract, so exported
  // intervals nest exactly: a child that ends before its parent never
  // exports an end (start_us + duration_us) past the parent's.
  const auto to_us = [&](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t -
                                                                 log.epoch_)
        .count();
  };
  event.start_us = to_us(start_);
  event.duration_us = to_us(end) - event.start_us;
  event.thread_id = this_thread_id();
  event.depth = depth_;
  event.args = std::move(args_);
  log.append(std::move(event));
}

Span& Span::arg(std::string_view key, std::int64_t value) {
  if (active_) args_.emplace_back(std::string(key), render_number(value));
  return *this;
}

Span& Span::arg(std::string_view key, double value) {
  if (active_) args_.emplace_back(std::string(key), render_number(value));
  return *this;
}

Span& Span::arg(std::string_view key, std::string_view value) {
  if (active_) {
    args_.emplace_back(std::string(key), '"' + json_escape(value) + '"');
  }
  return *this;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mempart::obs
