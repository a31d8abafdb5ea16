#include "obs/sinks.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/errors.h"

namespace mempart::obs {
namespace {

std::string render_double(double value) {
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void append_args(std::ostringstream& os,
                 const std::vector<std::pair<std::string, std::string>>& args) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << "\":" << value;
  }
  os << '}';
}

}  // namespace

std::string chrome_trace_json(const TraceLog& log) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : log.events()) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json_escape(event.name)
       << "\",\"cat\":\"mempart\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << event.thread_id << ",\"ts\":" << event.start_us
       << ",\"dur\":" << event.duration_us;
    if (!event.args.empty()) {
      os << ",\"args\":";
      append_args(os, event.args);
    }
    os << '}';
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string trace_text_report(const TraceLog& log) {
  std::ostringstream os;
  int current_thread = -1;
  for (const TraceEvent& event : log.events()) {
    if (event.thread_id != current_thread) {
      current_thread = event.thread_id;
      os << "thread " << current_thread << '\n';
    }
    os << "  ";
    for (int i = 0; i < event.depth; ++i) os << "  ";
    os << event.name << "  " << event.duration_us << " us";
    if (!event.args.empty()) {
      os << "  [";
      bool first = true;
      for (const auto& [key, value] : event.args) {
        if (!first) os << ' ';
        first = false;
        os << key << '=' << value;
      }
      os << ']';
    }
    os << '\n';
  }
  return os.str();
}

std::string metrics_json(const Registry& registry) {
  std::ostringstream os;
  os << "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    if (!first) os << ',';
    first = false;
    os << "\n  \"" << json_escape(name) << "\":" << value;
  }
  os << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    if (!first) os << ',';
    first = false;
    os << "\n  \"" << json_escape(name) << "\":" << render_double(value);
  }
  os << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : registry.histograms()) {
    if (!first) os << ',';
    first = false;
    os << "\n  \"" << json_escape(name) << "\":{\"upper_bounds\":[";
    for (size_t i = 0; i < snap.upper_bounds.size(); ++i) {
      if (i > 0) os << ',';
      os << render_double(snap.upper_bounds[i]);
    }
    os << "],\"buckets\":[";
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (i > 0) os << ',';
      os << snap.buckets[i];
    }
    os << "],\"count\":" << snap.count << ",\"sum\":" << render_double(snap.sum);
    if (snap.count > 0) {
      os << ",\"min\":" << render_double(snap.min)
         << ",\"max\":" << render_double(snap.max);
    }
    os << '}';
  }
  // Latency series carry the same fields as the NDJSON snapshot's
  // "latency" section (obs/snapshot.cpp).
  os << "\n},\n\"latency\":{";
  first = true;
  for (const auto& [name, snap] : registry.latencies()) {
    if (!first) os << ',';
    first = false;
    os << "\n  \"" << json_escape(name) << "\":{\"count\":" << snap.count
       << ",\"sum\":" << snap.sum << ",\"min\":" << snap.min
       << ",\"max\":" << snap.max << ",\"p50\":" << snap.p50()
       << ",\"p90\":" << snap.p90() << ",\"p99\":" << snap.p99()
       << ",\"p999\":" << snap.p999() << '}';
  }
  os << "\n}\n}\n";
  return os.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  MEMPART_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  out.flush();
  MEMPART_REQUIRE(out.good(), "failed writing '" + path + "'");
}

}  // namespace mempart::obs
