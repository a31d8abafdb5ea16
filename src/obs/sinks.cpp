#include "obs/sinks.h"

#include <fstream>
#include <sstream>

#include "common/errors.h"
#include "common/json.h"

namespace mempart::obs {
namespace {

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

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  MEMPART_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << content;
  out.flush();
  MEMPART_REQUIRE(out.good(), "failed writing '" + path + "'");
}

}  // namespace mempart::obs
