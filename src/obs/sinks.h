// Export sinks for the observability layer.
//
// Two artifact formats, both plain strings so callers decide where they go:
//   - chrome_trace_json(): the Chrome trace-event format ("traceEvents"
//     array of ph:"X" complete events, timestamps in microseconds). Load
//     the file in chrome://tracing or https://ui.perfetto.dev to see the
//     solver/simulator span hierarchy on a timeline.
//   - metrics_json(): the whole registry as one JSON object with
//     "counters", "gauges", "histograms" and "latency" sections;
//     histograms carry bucket upper bounds, per-bucket counts (overflow
//     last), and count/sum/min/max; latency series carry count, sum, min,
//     max, p50, p90, p99 and p999.
// trace_text_report() renders the same spans as an indented plain-text
// tree for terminal use.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::obs {

/// Renders the trace log in Chrome trace-event JSON.
[[nodiscard]] std::string chrome_trace_json(
    const TraceLog& log = TraceLog::instance());

/// Renders the trace log as an indented per-thread text tree.
[[nodiscard]] std::string trace_text_report(
    const TraceLog& log = TraceLog::instance());

/// Renders the metrics registry as a JSON object.
[[nodiscard]] std::string metrics_json(
    const Registry& registry = Registry::instance());

/// Writes `content` to `path`, throwing InvalidArgument on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace mempart::obs
