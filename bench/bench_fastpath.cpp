// A/B harness for the compiled-plan fast path: replays the Table-1 loop
// nests through both simulator paths — the per-access virtual reference
// (loopnest::simulate) and the compiled AccessPlan (loopnest::simulate_fast)
// — asserts the cycle statistics agree bit-for-bit, reports the speedup,
// and sweeps the parallel runner from 1..T threads over the workload set to
// measure sweep scaling. Emits machine-readable JSON (BENCH_fastpath.json)
// for CI artifacts and docs/PERFORMANCE.md.
//
// Exit status is non-zero when any fast-path statistic disagrees with the
// reference oracle, so CI can gate on it.
//
// A fourth leg A/Bs the telemetry layer itself over the cached-solve hot
// path: flight recorder off vs on (gated, the recorder is always on in
// production) and full metrics (informational). Results land in a second
// JSON file (BENCH_obs.json) and the gate fails the run when the recorder
// costs more than --obs-max-overhead percent.
//
// Flags: --quick (fewer reps, smaller frames), --threads T (max sweep
// width, default 4), --out FILE (JSON path, default BENCH_fastpath.json),
// --obs-out FILE (telemetry JSON, default BENCH_obs.json),
// --obs-max-overhead PCT (flight-recorder gate, default 5).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <cmath>

#include "bench_host.h"
#include "common/args.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "core/partitioner.h"
#include "img/banked_convolve.h"
#include "img/synthetic.h"
#include "loopnest/schedule.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern_library.h"
#include "sim/address_map.h"

namespace {

using namespace mempart;

struct Workload {
  std::string name;
  Pattern pattern;
  NdShape shape;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool stats_equal(const sim::AccessStats& a, const sim::AccessStats& b) {
  return a.iterations == b.iterations && a.accesses == b.accesses &&
         a.cycles == b.cycles && a.conflict_cycles == b.conflict_cycles &&
         a.worst_group_cycles == b.worst_group_cycles &&
         a.bank_load == b.bank_load;
}

sim::CoreAddressMap solve_map(const Pattern& pattern, const NdShape& shape) {
  PartitionRequest req;
  req.pattern = pattern;
  req.array_shape = shape;
  PartitionSolution sol = Partitioner::solve(req);
  return sim::CoreAddressMap(std::move(*sol.mapping));
}

std::vector<Workload> build_workloads(bool quick) {
  const NdShape frame2d = quick ? NdShape({48, 40}) : NdShape({96, 72});
  const NdShape frame3d = quick ? NdShape({8, 10, 12}) : NdShape({12, 16, 20});
  std::vector<Workload> workloads;
  for (const Pattern& pattern : patterns::table1_patterns()) {
    workloads.push_back(
        {pattern.name(), pattern,
         pattern.rank() == 3 ? frame3d : frame2d});
  }
  return workloads;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("bench_fastpath",
                   "A/B: reference simulator vs compiled access plans");
  parser.add_bool("quick", "smaller frames and fewer repetitions");
  parser.add_int("threads", 4, "max thread count of the sweep scaling run");
  parser.add_string("out", "BENCH_fastpath.json", "JSON output path");
  parser.add_string("obs-out", "BENCH_obs.json",
                    "telemetry-overhead JSON output path");
  parser.add_int("obs-max-overhead", 5,
                 "max flight-recorder overhead percent before failing");
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    parser.parse(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  const bool quick = parser.get_bool("quick");
  const Count max_threads = std::max<Count>(1, parser.get_int("threads"));
  const int reps = quick ? 3 : 10;

  const std::vector<Workload> workloads = build_workloads(quick);
  std::vector<sim::CoreAddressMap> maps;
  std::vector<loopnest::StencilProgram> programs;
  maps.reserve(workloads.size());
  programs.reserve(workloads.size());
  for (const Workload& w : workloads) {
    maps.push_back(solve_map(w.pattern, w.shape));
    programs.emplace_back(w.shape, w.pattern, w.name);
  }

  bool all_match = true;
  std::ostringstream json;
  json << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n  "
       << bench::host_json_fields() << ",\n  \"workloads\": [\n";

  // --- Part 1: single-thread A/B per workload ---
  std::cout << "=== Fast-path A/B: reference simulate() vs compiled "
               "AccessPlan ===\n\n";
  double total_ref_ms = 0.0;
  double total_fast_ms = 0.0;
  for (size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const sim::AccessStats ref = loopnest::simulate(programs[i], maps[i]);
    const sim::AccessStats fast =
        loopnest::simulate_fast(programs[i], maps[i]);
    const bool match = stats_equal(ref, fast);
    all_match = all_match && match;

    double t0 = now_ms();
    for (int r = 0; r < reps; ++r) (void)loopnest::simulate(programs[i], maps[i]);
    const double ref_ms = (now_ms() - t0) / reps;
    t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      (void)loopnest::simulate_fast(programs[i], maps[i]);
    }
    const double fast_ms = (now_ms() - t0) / reps;
    total_ref_ms += ref_ms;
    total_fast_ms += fast_ms;

    const double speedup = fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
    std::cout << "  " << w.name << " (" << w.shape.to_string() << ", m="
              << w.pattern.size() << "): ref " << ref_ms << " ms, fast "
              << fast_ms << " ms, speedup " << speedup << "x, stats "
              << (match ? "IDENTICAL" : "MISMATCH") << '\n';
    json << "    {\"name\": \"" << w.name << "\", \"shape\": \""
         << w.shape.to_string() << "\", \"ref_ms\": " << ref_ms
         << ", \"fast_ms\": " << fast_ms << ", \"speedup\": " << speedup
         << ", \"cycles\": " << fast.cycles
         << ", \"simd\": \"" << simd::tier_name(simd::active_tier())
         << "\", \"stats_identical\": " << (match ? "true" : "false") << "}"
         << (i + 1 < workloads.size() ? "," : "") << '\n';
  }
  const double overall =
      total_fast_ms > 0.0 ? total_ref_ms / total_fast_ms : 0.0;
  std::cout << "\n  overall: ref " << total_ref_ms << " ms, fast "
            << total_fast_ms << " ms, speedup " << overall << "x\n";
  json << "  ],\n  \"overall_speedup\": " << overall << ",\n";

  // --- Part 1b: production-size SIMD legs (scalar tier vs widest tier) ---
  // Full frames at video resolutions; the reference simulator is far too
  // slow here, so the A/B is scalar-dispatch vs widest-dispatch through the
  // same compiled AccessPlan — bit-identical statistics required. Quick
  // mode keeps the small frame so CI smoke stays fast.
  std::cout << "\n=== Production frames: scalar vs "
            << simd::tier_name(simd::active_tier())
            << " dispatch (simulate_fast) ===\n\n";
  {
    const simd::Tier wide = simd::active_tier();
    const std::vector<NdShape> prod_frames =
        quick ? std::vector<NdShape>{NdShape({96, 72})}
              : std::vector<NdShape>{NdShape({1920, 1080}),
                                     NdShape({3840, 2160})};
    const int prod_reps = 3;
    json << "  \"simd_tier\": \"" << simd::tier_name(wide)
         << "\",\n  \"production\": [\n";
    // Geomean of the first (1080p) frame's speedups: the headline number
    // docs and CI track. Quick mode substitutes its small frame.
    double log_speedup_sum = 0.0;
    Count geomean_legs = 0;
    bool first_entry = true;
    for (size_t f = 0; f < prod_frames.size(); ++f) {
      const NdShape& frame = prod_frames[f];
      for (const Workload& w : workloads) {
        if (w.pattern.rank() != 2) continue;
        const sim::CoreAddressMap map = solve_map(w.pattern, frame);
        const loopnest::StencilProgram program(frame, w.pattern, w.name);
        sim::AccessStats scalar_stats;
        sim::AccessStats simd_stats;
        double scalar_ms = 0.0;
        double simd_ms = 0.0;
        // Best-of-N, not mean: the run shares the machine with CI neighbours
        // and the mean absorbs their noise; the minimum is the capability.
        {
          const simd::TierOverride guard(simd::Tier::kScalar);
          scalar_stats = loopnest::simulate_fast(program, map);
          scalar_ms = std::numeric_limits<double>::infinity();
          for (int r = 0; r < prod_reps; ++r) {
            const double t0 = now_ms();
            (void)loopnest::simulate_fast(program, map);
            scalar_ms = std::min(scalar_ms, now_ms() - t0);
          }
        }
        {
          const simd::TierOverride guard(wide);
          simd_stats = loopnest::simulate_fast(program, map);
          simd_ms = std::numeric_limits<double>::infinity();
          for (int r = 0; r < prod_reps; ++r) {
            const double t0 = now_ms();
            (void)loopnest::simulate_fast(program, map);
            simd_ms = std::min(simd_ms, now_ms() - t0);
          }
        }
        const bool match = stats_equal(scalar_stats, simd_stats);
        all_match = all_match && match;
        const double speedup = simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
        if (f == 0 && speedup > 0.0) {
          log_speedup_sum += std::log(speedup);
          ++geomean_legs;
        }
        std::cout << "  " << w.name << " (" << frame.to_string()
                  << "): scalar " << scalar_ms << " ms, "
                  << simd::tier_name(wide) << " " << simd_ms
                  << " ms, speedup " << speedup << "x, stats "
                  << (match ? "IDENTICAL" : "MISMATCH") << '\n';
        if (!first_entry) json << ",\n";
        first_entry = false;
        json << "    {\"name\": \"" << w.name << "\", \"shape\": \""
             << frame.to_string() << "\", \"simd\": \""
             << simd::tier_name(wide) << "\", \"scalar_ms\": " << scalar_ms
             << ", \"simd_ms\": " << simd_ms << ", \"speedup\": " << speedup
             << ", \"stats_identical\": " << (match ? "true" : "false")
             << "}";
      }
    }
    const double geomean =
        geomean_legs > 0
            ? std::exp(log_speedup_sum / static_cast<double>(geomean_legs))
            : 0.0;
    std::cout << "\n  geomean (" << prod_frames.front().to_string()
              << "): " << geomean << "x\n";
    json << "\n  ],\n  \"simd_geomean_1080p\": " << geomean << ",\n";
  }

  // --- Part 2: convolution A/B (2-D workloads, full data path) ---
  std::cout << "\n=== Convolution A/B (LoG kernel through banked memory) "
               "===\n\n";
  {
    const Kernel kernel = patterns::log5x5_kernel();
    const NdShape frame = quick ? NdShape({48, 40}) : NdShape({96, 72});
    const img::Image input = img::gradient(frame);
    const sim::CoreAddressMap map = solve_map(kernel.support(), frame);
    const auto ref = img::convolve_banked_reference(input, kernel, map);
    const auto fast = img::convolve_banked(input, kernel, map);
    const bool match =
        ref.output == fast.output && stats_equal(ref.stats, fast.stats);
    all_match = all_match && match;
    double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      (void)img::convolve_banked_reference(input, kernel, map);
    }
    const double ref_ms = (now_ms() - t0) / reps;
    t0 = now_ms();
    for (int r = 0; r < reps; ++r) (void)img::convolve_banked(input, kernel, map);
    const double fast_ms = (now_ms() - t0) / reps;
    const double speedup = fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
    std::cout << "  LoG " << frame.to_string() << ": ref " << ref_ms
              << " ms, fast " << fast_ms << " ms, speedup " << speedup
              << "x, output+stats " << (match ? "IDENTICAL" : "MISMATCH")
              << '\n';
    json << "  \"convolve\": {\"ref_ms\": " << ref_ms
         << ", \"fast_ms\": " << fast_ms << ", \"speedup\": " << speedup
         << ", \"identical\": " << (match ? "true" : "false") << "},\n";
  }

  // --- Part 3: sweep scaling 1..T threads over the workload set ---
  std::cout << "\n=== Sweep scaling: all workloads via parallel_for ===\n\n";
  std::vector<Count> baseline_cycles;
  double single_thread_ms = 0.0;
  json << "  \"sweep\": [\n";
  for (Count threads = 1; threads <= max_threads; ++threads) {
    ThreadPool pool(threads);
    std::vector<Count> cycles(workloads.size(), 0);
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
      pool.parallel_for(static_cast<Count>(workloads.size()), [&](Count i) {
        cycles[static_cast<size_t>(i)] =
            loopnest::simulate_fast(programs[static_cast<size_t>(i)],
                                    maps[static_cast<size_t>(i)])
                .cycles;
      });
    }
    const double sweep_ms = (now_ms() - t0) / reps;
    if (threads == 1) {
      baseline_cycles = cycles;
      single_thread_ms = sweep_ms;
    }
    const bool deterministic = cycles == baseline_cycles;
    all_match = all_match && deterministic;
    const double scaling = sweep_ms > 0.0 ? single_thread_ms / sweep_ms : 0.0;
    std::cout << "  threads=" << threads << ": " << sweep_ms << " ms ("
              << scaling << "x vs 1 thread)"
              << (deterministic ? "" : "  CYCLE MISMATCH vs 1 thread")
              << '\n';
    json << "    {\"threads\": " << threads << ", \"sweep_ms\": " << sweep_ms
         << ", \"scaling\": " << scaling
         << ", \"deterministic\": " << (deterministic ? "true" : "false")
         << "}" << (threads < max_threads ? "," : "") << '\n';
  }
  json << "  ],\n  \"all_identical\": " << (all_match ? "true" : "false")
       << "\n}\n";

  const std::string out_path = parser.get_string("out");
  std::ofstream out(out_path);
  out << json.str();
  std::cout << "\nwrote " << out_path << '\n';

  // --- Part 4: telemetry overhead (always-on flight recorder A/B) ---
  // Gate workload: the `mempart batch` pipeline (solve_many_collect over a
  // request stream with repeated patterns) — the production path the
  // always-on recorder must not tax. The recorder-on vs recorder-off delta
  // there is gated at --obs-max-overhead percent; the full-metrics run
  // (histogram timers + per-group observe()) is reported informationally.
  // A second, unguarded number prices the worst case: the per-call cost of
  // spans + flight events on a warm single-request solve (~a microsecond of
  // real work), in nanoseconds per solve.
  std::cout << "\n=== Telemetry overhead: flight recorder + metrics ===\n\n";
  const double max_overhead_pct = static_cast<double>(
      std::max<Count>(0, parser.get_int("obs-max-overhead")));
  bool obs_pass = true;
  std::ostringstream obs_json;
  obs_json << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n";
  {
    std::vector<PartitionRequest> requests;
    requests.reserve(workloads.size());
    for (const Workload& w : workloads) {
      PartitionRequest req;
      req.pattern = w.pattern;
      req.array_shape = w.shape;
      requests.push_back(req);
    }
    // The batch stream repeats each pattern, as real request streams do;
    // duplicates exercise the canonicalize + rehydrate path end to end.
    const int copies = quick ? 10 : 25;
    std::vector<PartitionRequest> stream;
    stream.reserve(requests.size() * static_cast<size_t>(copies));
    for (int c = 0; c < copies; ++c) {
      stream.insert(stream.end(), requests.begin(), requests.end());
    }
    const int batch_reps = quick ? 5 : 15;
    const int solve_reps = quick ? 300 : 1500;

    // Best-of-3 wall time for one obs configuration; the warm-up pass fills
    // the solve cache so every trial measures the steady state.
    const auto run_case = [&](Count flight_capacity, bool metrics,
                              const auto& body) {
      obs::flight_clear();
      obs::set_flight_capacity(flight_capacity);
      obs::set_metrics_enabled(metrics);
      if (metrics) obs::Registry::instance().clear();
      body();  // warm-up
      double best = std::numeric_limits<double>::infinity();
      for (int trial = 0; trial < 3; ++trial) {
        const double t0 = now_ms();
        body();
        best = std::min(best, now_ms() - t0);
      }
      obs::set_metrics_enabled(false);
      obs::flight_clear();
      return best;
    };

    Partitioner partitioner;
    const auto batch_body = [&] {
      for (int r = 0; r < batch_reps; ++r) {
        (void)partitioner.solve_many_collect(stream);
      }
    };
    const double batch_off_ms = run_case(0, false, batch_body);
    const double batch_flight_ms =
        run_case(obs::kDefaultFlightCapacity, false, batch_body);
    const double batch_full_ms =
        run_case(obs::kDefaultFlightCapacity, true, batch_body);
    const auto overhead_pct = [](double off, double with) {
      return off > 0.0 ? (with - off) / off * 100.0 : 0.0;
    };
    const double flight_pct = overhead_pct(batch_off_ms, batch_flight_ms);
    const double full_pct = overhead_pct(batch_off_ms, batch_full_ms);
    obs_pass = flight_pct < max_overhead_pct;
    const Count batch_solves = static_cast<Count>(batch_reps) *
                               static_cast<Count>(stream.size());
    std::cout << "  batch pipeline (" << batch_solves
              << " requests per trial, best of 3):\n"
              << "    telemetry off:   " << batch_off_ms << " ms\n"
              << "    flight recorder: " << batch_flight_ms << " ms  ("
              << flight_pct << "% overhead, gate < " << max_overhead_pct
              << "%)  " << (obs_pass ? "PASS" : "FAIL") << '\n'
              << "    + full metrics:  " << batch_full_ms << " ms  ("
              << full_pct << "% overhead, informational)\n";
    obs_json << "  \"batch\": {\"requests_per_trial\": " << batch_solves
             << ", \"off_ms\": " << batch_off_ms
             << ", \"flight_ms\": " << batch_flight_ms
             << ", \"full_metrics_ms\": " << batch_full_ms
             << ", \"flight_overhead_pct\": " << flight_pct
             << ", \"full_metrics_overhead_pct\": " << full_pct << "},\n";

    // Worst case, informational: warm cache hits through the single-request
    // API cost ~1 us each, so the fixed span/flight cost shows up as a large
    // relative number. Reported as ns per solve, not gated — batch callers
    // use solve_many, which amortises its spans across chunks.
    const auto solve_body = [&] {
      for (int r = 0; r < solve_reps; ++r) {
        for (const PartitionRequest& req : requests) {
          (void)Partitioner::solve(req);
        }
      }
    };
    const double solves =
        static_cast<double>(solve_reps) * static_cast<double>(requests.size());
    const auto per_solve_ns = [&](double ms) { return ms * 1e6 / solves; };
    const double solve_off_ns = per_solve_ns(run_case(0, false, solve_body));
    const double solve_flight_ns =
        per_solve_ns(run_case(obs::kDefaultFlightCapacity, false, solve_body));
    const double solve_full_ns =
        per_solve_ns(run_case(obs::kDefaultFlightCapacity, true, solve_body));
    std::cout << "  warm single-request solve (informational):\n"
              << "    telemetry off:   " << solve_off_ns << " ns/solve\n"
              << "    flight recorder: " << solve_flight_ns << " ns/solve  (+"
              << (solve_flight_ns - solve_off_ns) << " ns)\n"
              << "    + full metrics:  " << solve_full_ns << " ns/solve  (+"
              << (solve_full_ns - solve_off_ns) << " ns)\n";
    obs_json << "  \"per_solve\": {\"off_ns\": " << solve_off_ns
             << ", \"flight_ns\": " << solve_flight_ns
             << ", \"full_metrics_ns\": " << solve_full_ns << "},\n";
  }
  obs_json << "  \"max_overhead_pct\": " << max_overhead_pct
           << ",\n  \"pass\": " << (obs_pass ? "true" : "false") << "\n}\n";
  const std::string obs_out_path = parser.get_string("obs-out");
  {
    std::ofstream obs_out(obs_out_path);
    obs_out << obs_json.str();
  }
  std::cout << "  wrote " << obs_out_path << '\n';

  if (!all_match) {
    std::cerr << "FAIL: fast path disagreed with the reference oracle\n";
    return 1;
  }
  if (!obs_pass) {
    std::cerr << "FAIL: flight-recorder overhead exceeded the gate\n";
    return 1;
  }
  std::cout << "PASS: fast path bit-identical to the reference on all "
               "workloads\n";
  return 0;
}
