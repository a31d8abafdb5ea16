// Trace export sinks for the observability layer.
//
// chrome_trace_json() renders the Chrome trace-event format ("traceEvents"
// array of ph:"X" complete events, timestamps in microseconds). Load the
// file in chrome://tracing or https://ui.perfetto.dev to see the
// solver/simulator span hierarchy on a timeline. trace_text_report()
// renders the same spans as an indented plain-text tree for terminal use.
// The metrics registry exports through obs/snapshot.h.
#pragma once

#include <string>

#include "obs/trace.h"

namespace mempart::obs {

/// Renders the trace log in Chrome trace-event JSON.
[[nodiscard]] std::string chrome_trace_json(
    const TraceLog& log = TraceLog::instance());

/// Renders the trace log as an indented per-thread text tree.
[[nodiscard]] std::string trace_text_report(
    const TraceLog& log = TraceLog::instance());

/// Writes `content` to `path`, throwing InvalidArgument on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace mempart::obs
