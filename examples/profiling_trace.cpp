// Profiling a solve + simulation with the observability layer.
//
// Scenario: you want to see where time goes when partitioning the Canny
// constellation and replaying its loop nest, and how evenly the resulting
// banks are loaded. This program enables tracing and metrics
// programmatically (the CLI equivalent is `mempart profile --pattern Canny
// --shape 640x480 --trace trace.json --metrics metrics.json`), runs the
// pipeline, prints the span tree, and writes both export files: the trace
// as Chrome trace-event JSON, the metrics as one NDJSON sample that
// `mempart stats --in profile_metrics.json` renders.
#include <iostream>

#include "core/partitioner.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_program.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "pattern/pattern_library.h"
#include "sim/address_map.h"

int main() {
  using namespace mempart;

  // 1. Switch the layer on (MEMPART_TRACE=1 / MEMPART_METRICS=1 in the
  //    environment would do the same without touching code).
  obs::enable();

  // 2. Run the instrumented pipeline: closed-form solve, then a
  //    cycle-accurate replay of the full stencil loop nest.
  const Pattern pattern = patterns::canny5x5();
  PartitionRequest request;
  request.pattern = pattern;
  request.array_shape = NdShape({640, 480});

  sim::AccessStats stats;
  {
    obs::Span span("example.profile");  // spans nest under this root
    span.arg("pattern", pattern.name());
    const PartitionSolution solution = Partitioner::solve(request);
    std::cout << "solution: " << solution.summary() << '\n';

    const sim::CoreAddressMap map(*solution.mapping);
    const loopnest::StencilProgram program(*request.array_shape, pattern,
                                           pattern.name());
    stats = loopnest::simulate(program, map);
  }
  std::cout << "replay:   " << stats.cycles << " cycles for "
            << stats.iterations << " iterations, " << stats.conflict_cycles
            << " conflict cycles\n\n";

  // 3. Inspect. The text report shows the nested spans with durations;
  //    the same data exports as Chrome trace-event JSON for
  //    chrome://tracing or ui.perfetto.dev.
  std::cout << "span tree:\n" << obs::trace_text_report();
  obs::write_text_file("profile_trace.json", obs::chrome_trace_json());
  obs::write_text_file("profile_metrics.json", obs::ndjson_sample());
  std::cout << "\nwrote profile_trace.json (open in chrome://tracing) and "
               "profile_metrics.json\n";

  // 4. Metrics answer "how balanced are the banks?" without any JSON:
  //    the simulator publishes a per-bank load histogram and gauges.
  const obs::Registry& registry = obs::Registry::instance();
  std::cout << "\nbank load: min=" << registry.gauge("sim.bank_load.min")
            << " max=" << registry.gauge("sim.bank_load.max")
            << " mean=" << registry.gauge("sim.bank_load.mean")
            << "  (conflict-free => every access pattern read hits its own "
               "bank)\n";
  std::cout << "solver ops: add=" << registry.counter("solver.ops.add")
            << " mul=" << registry.counter("solver.ops.mul")
            << " compare=" << registry.counter("solver.ops.compare")
            << "  (the Table 1 tallies, bridged into the registry)\n";
  return 0;
}
