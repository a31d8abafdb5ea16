#include "obs/snapshot.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/errors.h"
#include "common/json.h"
#include "obs/sinks.h"

namespace mempart::obs {
namespace {

// ---------------------------------------------------------------------------
// OpenMetrics rendering
// ---------------------------------------------------------------------------

/// Maps a dotted registry name onto the OpenMetrics charset
/// [a-zA-Z_:][a-zA-Z0-9_:]*, prefixed to keep the namespace unambiguous.
std::string sanitize_name(std::string_view name) {
  std::string out = "mempart_";
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string render_value(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
constexpr const char* kQuantileLabels[] = {"0.5", "0.9", "0.99", "0.999"};

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Flattens the JSON object `in` is at into `out`, nested objects under
/// dotted keys ("counters" -> "counters.<name>"); non-numeric leaves are
/// skipped.
void flatten(json::Reader& in, const std::string& prefix, MetricSample& out) {
  in.begin_object();
  for (std::string_view key; in.next_key(key);) {
    const std::string path =
        prefix.empty() ? std::string(key) : prefix + '.' + std::string(key);
    const char next = in.peek();
    if (next == '{') {
      flatten(in, path, out);
    } else if (next == '-' || (next >= '0' && next <= '9')) {
      out[path] = in.read_number();
    } else {
      in.skip_value();
    }
  }
}

// ---------------------------------------------------------------------------
// OpenMetrics parsing
// ---------------------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
    return false;
  }
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

/// Checks one comment line. `typed` collects the families declared so far:
/// OpenMetrics allows one `# TYPE` line per family, so a second one means
/// two exports of the same name (say, a counter and a gauge) collided.
void check_comment_line(std::string_view line, int line_number,
                        std::set<std::string>& typed) {
  // "# TYPE <name> <type>" / "# HELP <name> <text>" / "# UNIT <name> <u>".
  std::istringstream in{std::string(line)};
  std::string hash;
  std::string keyword;
  std::string name;
  in >> hash >> keyword >> name;
  MEMPART_REQUIRE(
      (keyword == "TYPE" || keyword == "HELP" || keyword == "UNIT") &&
          valid_metric_name(name),
      "openmetrics line " + std::to_string(line_number) +
          ": malformed comment '" + std::string(line) + "'");
  if (keyword == "TYPE") {
    std::string type;
    in >> type;
    MEMPART_REQUIRE(type == "counter" || type == "gauge" ||
                        type == "histogram" || type == "summary" ||
                        type == "unknown" || type == "info" ||
                        type == "stateset" || type == "gaugehistogram",
                    "openmetrics line " + std::to_string(line_number) +
                        ": unknown metric type '" + type + "'");
    MEMPART_REQUIRE(typed.insert(name).second,
                    "openmetrics line " + std::to_string(line_number) +
                        ": second # TYPE for family '" + name + "' in '" +
                        std::string(line) + "'");
  }
}

/// Parses `name[{labels}] value [timestamp]`, returning (key, value).
std::pair<std::string, double> parse_sample_line(std::string_view line,
                                                 int line_number) {
  const std::string context =
      "openmetrics line " + std::to_string(line_number) + ": ";
  size_t pos = 0;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '{') ++pos;
  MEMPART_REQUIRE(valid_metric_name(line.substr(0, pos)),
                  context + "invalid metric name in '" + std::string(line) +
                      "'");
  std::string key(line.substr(0, pos));
  if (pos < line.size() && line[pos] == '{') {
    const size_t close = line.find('}', pos);
    MEMPART_REQUIRE(close != std::string_view::npos,
                    context + "unterminated label set");
    const std::string_view labels = line.substr(pos + 1, close - pos - 1);
    // Each label is name="value"; values may escape \" \\ \n.
    size_t lp = 0;
    while (lp < labels.size()) {
      size_t eq = labels.find('=', lp);
      MEMPART_REQUIRE(eq != std::string_view::npos &&
                          valid_metric_name(labels.substr(lp, eq - lp)),
                      context + "malformed label name");
      MEMPART_REQUIRE(eq + 1 < labels.size() && labels[eq + 1] == '"',
                      context + "label value must be quoted");
      size_t vp = eq + 2;
      while (vp < labels.size() && labels[vp] != '"') {
        vp += labels[vp] == '\\' ? 2 : 1;
      }
      MEMPART_REQUIRE(vp < labels.size(), context + "unterminated label value");
      lp = vp + 1;
      if (lp < labels.size()) {
        MEMPART_REQUIRE(labels[lp] == ',', context + "expected ',' in labels");
        ++lp;
      }
    }
    key.append(line.substr(pos, close - pos + 1));
    pos = close + 1;
  }
  MEMPART_REQUIRE(pos < line.size() && line[pos] == ' ',
                  context + "expected ' ' before value");
  ++pos;
  const size_t value_end = line.find(' ', pos);
  const std::string_view value_text =
      line.substr(pos, value_end == std::string_view::npos
                           ? std::string_view::npos
                           : value_end - pos);
  double value = 0.0;
  if (value_text == "+Inf") {
    value = std::numeric_limits<double>::infinity();
  } else if (value_text == "-Inf") {
    value = -std::numeric_limits<double>::infinity();
  } else if (value_text == "NaN") {
    value = std::numeric_limits<double>::quiet_NaN();
  } else {
    const std::string token(value_text);
    char* end = nullptr;
    value = std::strtod(token.c_str(), &end);
    MEMPART_REQUIRE(end != token.c_str() && *end == '\0',
                    context + "malformed value '" + token + "'");
  }
  // Anything after the value is an optional timestamp; validate charset.
  if (value_end != std::string_view::npos) {
    const std::string token(line.substr(value_end + 1));
    char* end = nullptr;
    (void)std::strtod(token.c_str(), &end);
    MEMPART_REQUIRE(end != token.c_str() && *end == '\0',
                    context + "malformed timestamp '" + token + "'");
  }
  return {std::move(key), value};
}

}  // namespace

std::string openmetrics_text(const Registry& registry) {
  std::ostringstream os;
  for (const auto& [name, value] : registry.counters()) {
    const std::string metric = sanitize_name(name);
    os << "# TYPE " << metric << " counter\n"
       << metric << "_total " << value << '\n';
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string metric = sanitize_name(name);
    os << "# TYPE " << metric << " gauge\n"
       << metric << ' ' << render_value(value) << '\n';
  }
  for (const auto& [name, snap] : registry.histograms()) {
    const std::string metric = sanitize_name(name);
    os << "# TYPE " << metric << " summary\n";
    for (size_t q = 0; q < std::size(kQuantiles); ++q) {
      os << metric << "{quantile=\"" << kQuantileLabels[q] << "\"} "
         << snap.quantile(kQuantiles[q]) << '\n';
    }
    os << metric << "_sum " << snap.sum << '\n'
       << metric << "_count " << snap.count << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

std::string ndjson_sample(const Registry& registry) {
  std::ostringstream os;
  os << "{\"ts_ms\":" << wall_clock_ms();
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    os << (first ? "" : ",") << '"' << json_escape(name) << "\":" << value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    os << (first ? "" : ",") << '"' << json_escape(name)
       << "\":" << render_value(value);
    first = false;
  }
  // Every histogram, latency or integer distribution, exports under the
  // "latency" key: readers (mempart stats, CI's smokes) key on that name.
  os << "},\"latency\":{";
  first = true;
  for (const auto& [name, snap] : registry.histograms()) {
    os << (first ? "" : ",") << '"' << json_escape(name)
       << "\":{\"count\":" << snap.count << ",\"sum\":" << snap.sum
       << ",\"min\":" << snap.min << ",\"max\":" << snap.max
       << ",\"p50\":" << snap.p50() << ",\"p90\":" << snap.p90()
       << ",\"p99\":" << snap.p99() << ",\"p999\":" << snap.p999() << '}';
    first = false;
  }
  os << "}}\n";
  return os.str();
}

MetricSample parse_openmetrics(const std::string& text) {
  MetricSample out;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  bool saw_eof = false;
  std::set<std::string> typed;
  while (std::getline(in, line)) {
    ++line_number;
    MEMPART_REQUIRE(!saw_eof, "openmetrics line " +
                                  std::to_string(line_number) +
                                  ": content after # EOF");
    MEMPART_REQUIRE(!line.empty(), "openmetrics line " +
                                       std::to_string(line_number) +
                                       ": empty line");
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.front() == '#') {
      check_comment_line(line, line_number, typed);
      continue;
    }
    out.insert(parse_sample_line(line, line_number));
  }
  MEMPART_REQUIRE(saw_eof, "openmetrics: missing terminating # EOF");
  return out;
}

MetricSample last_ndjson_sample(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      last = line;
    }
  }
  MEMPART_REQUIRE(!last.empty(), "ndjson series: no sample lines");
  json::Reader reader(last, "ndjson sample");
  MetricSample out;
  flatten(reader, "", out);
  reader.expect_end();
  return out;
}

Snapshotter::Snapshotter(SnapshotOptions options)
    : options_(std::move(options)) {}

Snapshotter::~Snapshotter() { stop(); }

void Snapshotter::start() {
  {
    const MutexLock lock(mutex_);
    if (running_) return;
    if (options_.openmetrics_path.empty() && options_.ndjson_path.empty()) {
      return;
    }
    running_ = true;
    stop_requested_ = false;
  }
  const MutexLock join_lock(join_mutex_);
  thread_ = std::thread([this] { run(); });
}

void Snapshotter::stop() {
  bool do_final = false;
  {
    // Claim the running state under the mutex: of N racing stop() calls
    // exactly one sees running_ still true, and only that one writes the
    // final snapshot — previously every racer did, doubling the "guaranteed
    // final tick" and leaving two threads in thread_.join() (a data race on
    // the std::thread itself).
    const MutexLock lock(mutex_);
    do_final = running_;
    running_ = false;
    stop_requested_ = true;
  }
  cv_.notify_all();
  {
    const MutexLock join_lock(join_mutex_);
    if (thread_.joinable()) thread_.join();
  }
  if (do_final) {
    // Final snapshot after the thread quiesced, so the files always end on
    // the freshest state even when the interval never elapsed.
    write_once();
  }
}

void Snapshotter::write_once() {
  if (options_.before_snapshot) options_.before_snapshot();
  if (!options_.openmetrics_path.empty()) {
    write_text_file(options_.openmetrics_path, openmetrics_text());
  }
  if (!options_.ndjson_path.empty()) {
    std::ofstream out(options_.ndjson_path, std::ios::app);
    MEMPART_REQUIRE(out.good(), "Snapshotter: cannot append to '" +
                                    options_.ndjson_path + "'");
    out << ndjson_sample();
    out.flush();
    MEMPART_REQUIRE(out.good(), "Snapshotter: failed writing '" +
                                    options_.ndjson_path + "'");
  }
  const MutexLock lock(mutex_);
  ++ticks_;
}

Count Snapshotter::ticks() const {
  const MutexLock lock(mutex_);
  return ticks_;
}

void Snapshotter::run() {
  UniqueLock lock(mutex_);
  while (!stop_requested_) {
    // Explicit wait loop (parallel.cpp idiom): wake on stop or interval.
    cv_.wait_for(lock, options_.interval);
    if (stop_requested_) break;
    lock.unlock();
    write_once();
    lock.lock();
  }
}

}  // namespace mempart::obs
