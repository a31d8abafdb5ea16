// Live metric snapshots: OpenMetrics + NDJSON export, and the periodic
// snapshotter thread behind `mempart --openmetrics/--ndjson`.
//
// This module serialises the full metrics registry (counters, gauges and
// histograms with percentiles) in the registry's two export formats:
//
//   - openmetrics_text(): the OpenMetrics / Prometheus text exposition
//     format. Counters become `<name>_total`, gauges `gauge`, histograms
//     `summary` (quantile series + _sum/_count). Metric names are prefixed
//     `mempart_` and '.' maps to '_'. Ends with `# EOF`.
//   - ndjson_sample(): one self-contained JSON object per call — wall-clock
//     timestamp, every counter/gauge, and per-histogram
//     count/sum/min/max/p50/p90/p99/p999 under the "latency" key — designed
//     to be appended to an NDJSON file as an immediately greppable time
//     series. `--metrics FILE` writes one such sample.
//
// parse_openmetrics() / last_ndjson_sample() read both formats back
// (strictly: a malformed line throws InvalidArgument), powering the
// `mempart stats` table renderer and the format tests.
//
// Snapshotter owns the periodic thread: every interval it runs an optional
// callback (the CLI publishes solve-cache gauges there), rewrites the
// OpenMetrics file, and appends one NDJSON sample; stop() (or destruction)
// takes a final snapshot and joins. State is MEMPART_GUARDED_BY-annotated
// and the start/stop/tick discipline is TSan-tested.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/annotations.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace mempart::obs {

/// Renders the registry in OpenMetrics text exposition format.
[[nodiscard]] std::string openmetrics_text(
    const Registry& registry = Registry::instance());

/// Renders one NDJSON time-series sample (single line, '\n'-terminated).
[[nodiscard]] std::string ndjson_sample(
    const Registry& registry = Registry::instance());

/// Flat name -> value view of a parsed exposition. Histogram series keep
/// their label set in the key, e.g. `mempart_solve_ns{quantile="0.99"}`.
using MetricSample = std::map<std::string, double>;

/// Parses OpenMetrics text, validating the line grammar (# TYPE/# HELP/
/// # UNIT/# EOF comments, `name[{labels}] value [timestamp]` samples,
/// metric-name charset, one # TYPE line per family). Throws
/// InvalidArgument on any malformed line.
[[nodiscard]] MetricSample parse_openmetrics(const std::string& text);

/// Parses the LAST sample line of an NDJSON series into the same flat view
/// (counters/gauges keep their dotted names; histograms expand to
/// `latency.<name>.p50` etc). Throws InvalidArgument on malformed JSON or an empty
/// series.
[[nodiscard]] MetricSample last_ndjson_sample(const std::string& text);

/// What the snapshotter writes and how often.
struct SnapshotOptions {
  std::string openmetrics_path;  ///< rewritten every tick; empty = skip
  std::string ndjson_path;       ///< appended every tick; empty = skip
  std::chrono::milliseconds interval{1000};
  /// Runs before every tick (and the final stop() snapshot) on the
  /// snapshotter thread — e.g. SolveCache::publish_stats.
  std::function<void()> before_snapshot;
};

/// Periodic exporter thread with clean shutdown.
class Snapshotter {
 public:
  explicit Snapshotter(SnapshotOptions options);
  ~Snapshotter();
  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Starts the thread. No-op when already running or when neither output
  /// path is set.
  void start();

  /// Takes one final snapshot, then stops and joins the thread. Safe to
  /// call repeatedly AND concurrently (also runs from the destructor):
  /// whichever caller claims the running state writes the guaranteed final
  /// tick exactly once, and the thread join is serialized — previously two
  /// racing stop() calls could both join thread_ (UB) and double the final
  /// snapshot, which `mempart serve` would hit whenever a signal-triggered
  /// drain raced the session teardown.
  void stop();

  /// Runs one snapshot synchronously on the calling thread (used by stop()
  /// and for interval-less one-shot exports).
  void write_once();

  /// Ticks taken so far (periodic + final).
  [[nodiscard]] Count ticks() const;

 private:
  void run();

  const SnapshotOptions options_;
  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  bool stop_requested_ MEMPART_GUARDED_BY(mutex_) = false;
  bool running_ MEMPART_GUARDED_BY(mutex_) = false;
  Count ticks_ MEMPART_GUARDED_BY(mutex_) = 0;
  /// Separate from mutex_ so a stop() holding it across join() cannot
  /// deadlock with the snapshot thread taking mutex_ on its way out.
  Mutex join_mutex_;
  std::thread thread_ MEMPART_GUARDED_BY(join_mutex_);
};

}  // namespace mempart::obs
