// Names the host a bench record was measured on, so a committed
// BENCH_*.json carries its hardware next to its numbers.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace mempart::bench {

/// `"cpu": "<model name>", "logical_cpus": N` — the first "model name"
/// line of /proc/cpuinfo ("unknown" where there is none) and the logical
/// CPU count, ready to splice into a JSON object.
inline std::string host_json_fields() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  std::ostringstream os;
  os << "\"cpu\": \"" << model
     << "\", \"logical_cpus\": " << std::thread::hardware_concurrency();
  return os.str();
}

}  // namespace mempart::bench
