// mempart — command-line front end to the partitioning library.
//
//   mempart solve   --pattern LoG --shape 640x480 --nmax 10 --strategy same-size
//   mempart solve   --pattern box:4 --bandwidth 2
//   mempart solve   --pattern my_pattern.txt            (ASCII art file)
//   mempart solve   --pattern LoG --trace t.json --metrics m.json
//   mempart profile --pattern LoG --shape 640x480 --trace t.json
//   mempart parse   stencil.c --shape 640x480           (C-like stencil file)
//   mempart verilog --pattern LoG --shape 640x480 --tb
//   mempart check   solution.mps                        (verify a record)
//   mempart check   repro.json                          (replay a fuzz repro)
//   mempart fuzz    --iters 10000 --seed 7 --out repros (differential fuzz)
//   mempart batch   --in reqs.ndjson --threads 4        (bulk cached solves)
//   mempart batch   --in reqs.ndjson --openmetrics m.txt --ndjson m.ndjson
//   mempart serve                                       (daemon on stdin/stdout)
//   mempart serve   --socket /tmp/mempart.sock --queue-depth 256
//   mempart stats   --in m.txt                          (render a snapshot)
//   mempart stats   --in m.json                         (a --metrics file)
//   mempart stats   --in m.ndjson --watch               (live refresh)
//   mempart table1                                      (paper comparison)
//
// Pattern sources: a Table 1 benchmark name (LoG, Canny, Prewitt, SE,
// Sobel3D, Median, Gaussian), a generator spec (box:K, cross:A, row:K,
// box3d:K), or a path to an ASCII-art file ('#' marks an element).
//
// --trace FILE / --metrics FILE enable the obs layer for the run and write
// Chrome trace-event JSON / one NDJSON metrics sample on exit (`mempart
// stats --in FILE` renders the latter). --openmetrics FILE /
// --ndjson FILE start the periodic snapshotter: OpenMetrics text rewritten
// and an NDJSON sample appended every --snapshot-interval-ms while the
// command runs, plus once at exit (docs/OBSERVABILITY.md).
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "baseline/ltb.h"
#include "check/config.h"
#include "check/differential.h"
#include "check/fuzzer.h"
#include "common/args.h"
#include "common/env.h"
#include "common/errors.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/solution_io.h"
#include "hw/rtl_gen.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_parser.h"
#include "loopnest/stencil_program.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "pattern/pattern_io.h"
#include "pattern/pattern_library.h"
#include "serve/server.h"

namespace {

using namespace mempart;

/// Exit code for "the downstream reader of our NDJSON output went away"
/// (EPIPE with SIGPIPE ignored). Distinct from 1 (request-level failures)
/// so a pipeline supervisor can tell "bad input" from "consumer died";
/// telemetry for the work completed so far is still flushed.
constexpr int kExitBrokenPipe = 3;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  MEMPART_REQUIRE(in.good(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Pattern resolve_pattern(const std::string& spec) {
  // Benchmark names and generator specs resolve in the library (with
  // guarded count parsing); anything else is read as an ASCII-art file.
  std::optional<Pattern> known = patterns::pattern_from_spec(spec);
  if (known.has_value()) return *std::move(known);
  return parse_pattern_2d(read_file(spec), spec);
}

void add_solver_flags(ArgParser& args) {
  args.add_string("pattern", "LoG", "pattern name, generator spec or art file")
      .add_string("shape", "", "array shape, e.g. 640x480 (empty = none)")
      .add_int("nmax", 0, "bank-count cap N_max (0 = unconstrained)")
      .add_int("bandwidth", 1, "bank bandwidth B (accesses/bank/cycle)")
      .add_string("strategy", "fast", "N_max strategy: fast | same-size")
      .add_string("tail", "padded", "tail policy: padded | compact");
}

void add_obs_flags(ArgParser& args) {
  args.add_string("trace", "", "write Chrome trace-event JSON to this file")
      .add_string("metrics", "",
                  "write one NDJSON metrics sample to this file at exit "
                  "(`mempart stats` reads it)")
      .add_string("openmetrics", "",
                  "snapshot the registry as OpenMetrics text to this file "
                  "(rewritten every interval and at exit)")
      .add_string("ndjson", "",
                  "append one NDJSON metrics sample per interval to this "
                  "file (a time series `mempart stats --watch` can follow)")
      .add_int("snapshot-interval-ms", 1000,
               "snapshotter period for --openmetrics/--ndjson");
}

/// Turns the obs layer on when --trace/--metrics/--openmetrics/--ndjson ask
/// for an artifact, runs the periodic snapshotter for the live formats, and
/// writes everything out in finish(). Scoped so every instrumented call
/// between construction and destruction lands in the export.
class ObsSession {
 public:
  explicit ObsSession(const ArgParser& args)
      : trace_path_(args.get_string("trace")),
        metrics_path_(args.get_string("metrics")) {
    if (!trace_path_.empty()) {
      obs::set_tracing_enabled(true);
      obs::TraceLog::instance().clear();
    }
    obs::SnapshotOptions snapshot;
    snapshot.openmetrics_path = args.get_string("openmetrics");
    snapshot.ndjson_path = args.get_string("ndjson");
    const bool live =
        !snapshot.openmetrics_path.empty() || !snapshot.ndjson_path.empty();
    if (!metrics_path_.empty() || live) {
      obs::set_metrics_enabled(true);
      obs::Registry::instance().clear();
    }
    if (live) {
      snapshot.interval =
          std::chrono::milliseconds(args.get_int("snapshot-interval-ms"));
      // Every tick refreshes the cache.* gauges first, so the exported
      // snapshot always carries current hit/miss/eviction numbers even
      // though SolveCache only publishes on demand. The pointer is atomic:
      // publish_cache() may swap it after the snapshotter thread started.
      snapshot.before_snapshot = [this] {
        const SolveCache* cache = cache_.load(std::memory_order_acquire);
        if (cache != nullptr) cache->publish_stats();
        const serve::Server* server =
            server_.load(std::memory_order_acquire);
        if (server != nullptr) server->publish_stats();
      };
      snapshotter_.emplace(std::move(snapshot));
      snapshotter_->start();
    }
  }

  /// Commands running on their own SolveCache (`mempart batch`, `mempart
  /// serve`) point the export here; everything else snapshots the
  /// process-wide cache.
  void publish_cache(const SolveCache* cache) {
    cache_.store(cache, std::memory_order_release);
  }

  /// `mempart serve` registers its server so every snapshot tick carries
  /// live serve.* gauges alongside the cache.* ones. A published cache or
  /// server must outlive the session: its destructor writes the final
  /// snapshot when a throw skips finish().
  void publish_server(const serve::Server* server) {
    server_.store(server, std::memory_order_release);
  }

  /// Stops the snapshotter (final snapshot included) and writes the
  /// requested artifacts (call after the traced work finishes).
  void finish() {
    if (snapshotter_.has_value()) {
      snapshotter_->stop();
    }
    const SolveCache* cache = cache_.load(std::memory_order_acquire);
    if (!metrics_path_.empty() && cache != nullptr) {
      // Snapshot the solve cache into cache.* gauges so the metrics export
      // reflects it (docs/OBSERVABILITY.md).
      cache->publish_stats();
    }
    if (!trace_path_.empty()) {
      obs::write_text_file(trace_path_, obs::chrome_trace_json());
      std::cout << "trace written to " << trace_path_ << '\n';
    }
    if (!metrics_path_.empty()) {
      obs::write_text_file(metrics_path_, obs::ndjson_sample());
      std::cout << "metrics written to " << metrics_path_ << '\n';
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::atomic<const SolveCache*> cache_{&SolveCache::global()};
  std::atomic<const serve::Server*> server_{nullptr};
  std::optional<obs::Snapshotter> snapshotter_;
};

PartitionRequest request_from(const ArgParser& args, const Pattern& pattern) {
  PartitionRequest req;
  req.pattern = pattern;
  if (!args.get_string("shape").empty()) {
    req.array_shape = parse_shape(args.get_string("shape"));
  }
  req.max_banks = args.get_int("nmax");
  req.bank_bandwidth = args.get_int("bandwidth");
  const std::string& strategy = args.get_string("strategy");
  MEMPART_REQUIRE(strategy == "fast" || strategy == "same-size",
                  "--strategy must be fast or same-size");
  req.strategy = strategy == "fast" ? ConstraintStrategy::kFastFold
                                    : ConstraintStrategy::kSameSize;
  const std::string& tail = args.get_string("tail");
  MEMPART_REQUIRE(tail == "padded" || tail == "compact",
                  "--tail must be padded or compact");
  req.tail = tail == "padded" ? TailPolicy::kPadded : TailPolicy::kCompact;
  return req;
}

int cmd_solve(const std::vector<std::string>& argv) {
  ArgParser args("mempart solve", "Partition an array for an access pattern.");
  add_solver_flags(args);
  args.add_string("record", "", "write the solution record to this file");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  ObsSession session(args);
  const Pattern pattern = resolve_pattern(args.get_string("pattern"));
  const PartitionRequest req = request_from(args, pattern);
  Partitioner partitioner;  // shares the process-wide solve cache
  const PartitionSolution sol = partitioner.solve_cached(req);

  std::cout << pattern.to_string() << '\n';
  if (pattern.rank() == 2) std::cout << render_pattern_2d(pattern);
  std::cout << '\n' << sol.summary() << '\n';
  std::cout << "pattern element banks:";
  for (Count b : sol.pattern_banks) std::cout << ' ' << b;
  std::cout << '\n';
  if (!args.get_string("record").empty()) {
    std::ofstream out(args.get_string("record"));
    MEMPART_REQUIRE(out.good(), "cannot write record file");
    out << write_solution_record(req, sol);
    std::cout << "record written to " << args.get_string("record") << '\n';
  }
  session.finish();
  return 0;
}

int cmd_profile(const std::vector<std::string>& argv) {
  ArgParser args("mempart profile",
                 "Solve, replay the full loop nest through the banked-memory "
                 "simulator, and export trace/metrics artifacts.");
  add_solver_flags(args);
  args.add_int("ports", 1, "simulator ports per bank");
  args.add_bool("fast", "replay through the compiled AccessPlan fast path "
                        "(identical statistics, no per-access address math)");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  ObsSession session(args);
  const Pattern pattern = resolve_pattern(args.get_string("pattern"));
  PartitionRequest req = request_from(args, pattern);
  MEMPART_REQUIRE(req.array_shape.has_value(), "profile needs --shape");

  sim::AccessStats stats;
  {
    obs::Span span("profile");
    span.arg("pattern", pattern.name());
    Partitioner partitioner;  // shares the process-wide solve cache
    const PartitionSolution sol = partitioner.solve_cached(req);
    std::cout << sol.summary() << '\n';
    const sim::CoreAddressMap map(*sol.mapping);
    const loopnest::StencilProgram program(*req.array_shape, pattern,
                                           pattern.name());
    stats = args.get_bool("fast")
                ? loopnest::simulate_fast(program, map, args.get_int("ports"))
                : loopnest::simulate(program, map, args.get_int("ports"));
  }
  std::cout << "replay: " << stats.iterations << " iterations, "
            << stats.cycles << " cycles (" << stats.avg_cycles_per_iteration()
            << " cycles/iter, " << stats.effective_bandwidth()
            << " elems/cycle), " << stats.conflict_cycles
            << " conflict cycles\n";
  session.finish();
  return 0;
}

int cmd_verilog(const std::vector<std::string>& argv) {
  ArgParser args("mempart verilog",
                 "Emit a synthesizable bank/offset address generator.");
  add_solver_flags(args);
  args.add_bool("tb", "also emit a self-checking testbench");
  args.add_string("module", "mempart_addr_gen", "generated module name");
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  const Pattern pattern = resolve_pattern(args.get_string("pattern"));
  PartitionRequest req = request_from(args, pattern);
  MEMPART_REQUIRE(req.array_shape.has_value(),
                  "verilog generation needs --shape");
  const PartitionSolution sol = Partitioner::solve(req);
  const hw::AddrGenIr ir = hw::build_addr_gen_ir(*sol.mapping);
  hw::RtlOptions options;
  options.module_name = args.get_string("module");
  std::cout << hw::emit_verilog(ir, options);
  if (args.get_bool("tb")) {
    std::vector<NdIndex> vectors;
    const NdShape& shape = *req.array_shape;
    for (Count i = 0; i < 8; ++i) {
      vectors.push_back(shape.unflatten((i * 7919) % shape.volume()));
    }
    std::cout << '\n' << hw::emit_verilog_testbench(ir, vectors, options);
  }
  return 0;
}

int cmd_parse(const std::vector<std::string>& argv) {
  ArgParser args("mempart parse",
                 "Parse a C-like stencil file, extract and solve its pattern.");
  args.add_string("shape", "640x480", "array shape for the mapping");
  args.parse(argv);
  if (args.help_requested() || args.positionals().empty()) {
    std::cout << args.usage() << "\npositional: path to the stencil source\n";
    return args.help_requested() ? 0 : 1;
  }
  const loopnest::ParsedStencil parsed =
      loopnest::parse_stencil(read_file(args.positionals().front()));
  const Pattern pattern = parsed.kernel.support().normalized();
  std::cout << "input array " << parsed.input_array << ", pattern:\n";
  if (pattern.rank() == 2) std::cout << render_pattern_2d(pattern);
  PartitionRequest req;
  req.pattern = pattern;
  req.array_shape = parse_shape(args.get_string("shape"));
  std::cout << '\n' << Partitioner::solve(req).summary() << '\n';
  return 0;
}

/// Replays one fuzz repro (or bare config) JSON through the differential
/// matrix. Returns 0 when the config no longer diverges.
int replay_repro(const std::string& path) {
  const check::CheckConfig config = check::config_from_repro(read_file(path));
  const check::DiffReport report = check::run_config(config);
  std::cout << path << ": ";
  if (report.clean_reject) {
    std::cout << "CLEAN REJECT (" << report.reject_reason << ")\n";
    return 0;
  }
  if (!report.diverged()) {
    std::cout << "OK (" << report.oracle_positions
              << " oracle positions, no divergence)\n";
    return 0;
  }
  std::cout << "DIVERGED\n";
  for (const check::Divergence& d : report.divergences) {
    std::cout << "  [" << d.kind << "] " << d.detail << '\n';
  }
  return 1;
}

int cmd_check(const std::vector<std::string>& argv) {
  ArgParser args("mempart check",
                 "Verify a stored solution record (.mps) or replay a fuzz "
                 "repro / config (.json) through the differential matrix.");
  args.parse(argv);
  if (args.help_requested() || args.positionals().empty()) {
    std::cout << args.usage()
              << "\npositional: path to a .mps record or a repro .json\n";
    return args.help_requested() ? 0 : 1;
  }
  const std::string& path = args.positionals().front();
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".json") {
    return replay_repro(path);
  }
  const SolutionRecord record = read_solution_record(read_file(path));
  if (verify_record(record)) {
    std::cout << "OK: record reproduces (Nf=" << record.nf
              << ", Nc=" << record.nc << ", delta=" << record.delta << ")\n";
    return 0;
  }
  std::cout << "STALE: re-solving the request no longer matches the record\n";
  return 1;
}

int cmd_fuzz(const std::vector<std::string>& argv) {
  ArgParser args("mempart fuzz",
                 "Differential fuzzing: random configs through the solver, "
                 "the LTB baseline, the AccessPlan fast path and the "
                 "brute-force oracle; failing configs are minimised and "
                 "written as JSON repros.");
  args.add_int("iters", 1000, "configurations to draw");
  args.add_int("seed", 1, "generator seed (same seed = same run)");
  args.add_string("out", ".", "directory for repro JSON files");
  args.add_bool("no-shrink", "emit raw failing configs without minimising");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  ObsSession session(args);
  check::FuzzOptions options;
  options.iters = args.get_int("iters");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.repro_dir = args.get_string("out");
  options.shrink = !args.get_bool("no-shrink");
  const check::FuzzSummary summary = check::run_fuzz(options);
  std::cout << "fuzz: " << summary.iters_run << " configs, " << summary.ok
            << " ok, " << summary.clean_rejects << " clean rejects, "
            << summary.divergences << " divergences\n";
  for (const std::string& repro : summary.repro_paths) {
    std::cout << "  repro: " << repro << '\n';
  }
  for (const std::string& flight : summary.flight_paths) {
    std::cout << "  flight: " << flight << '\n';
  }
  session.finish();
  return summary.clean() ? 0 : 1;
}

/// One NDJSON input line of `mempart batch`, parsed up front so malformed
/// lines produce a per-line error instead of aborting the stream.
struct BatchLine {
  std::size_t line_number = 0;
  std::optional<PartitionRequest> request;  // empty when parsing failed
  std::string error;
};

BatchLine parse_batch_line(std::size_t line_number, const std::string& text) {
  BatchLine parsed;
  parsed.line_number = line_number;
  try {
    parsed.request = check::to_request(check::CheckConfig::from_json(text));
  } catch (const Error& e) {
    parsed.error = e.what();
  }
  return parsed;
}

void write_batch_result(std::ostream& out, std::size_t line_number,
                        const PartitionSolution& sol) {
  out << "{\"line\": " << line_number << ", \"ok\": true, \"num_banks\": "
      << sol.num_banks() << ", \"delta_ii\": " << sol.delta_ii()
      << ", \"fold_factor\": " << sol.constraint.fold_factor << ", \"alpha\": [";
  const std::vector<Count>& alpha = sol.transform.alpha();
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out << (i ? ", " : "") << alpha[i];
  }
  out << "], \"pattern_banks\": [";
  for (std::size_t i = 0; i < sol.pattern_banks.size(); ++i) {
    out << (i ? ", " : "") << sol.pattern_banks[i];
  }
  out << "], \"ops\": " << sol.ops.arithmetic();
  if (sol.mapping.has_value()) {
    out << ", \"storage_overhead\": " << sol.storage_overhead_elements();
  }
  out << "}\n";
}

void write_batch_error(std::ostream& out, std::size_t line_number,
                       const std::string& error) {
  out << "{\"line\": " << line_number << ", \"ok\": false, \"error\": \""
      << json_escape(error) << "\"}\n";
}

int cmd_batch(const std::vector<std::string>& argv) {
  ArgParser args("mempart batch",
                 "Stream NDJSON partition requests (one CheckConfig JSON "
                 "object per line, the `mempart fuzz` repro schema) through "
                 "the canonical solution cache and the batched solver; "
                 "results come out as NDJSON in input order.");
  args.add_string("in", "", "input NDJSON file (empty = stdin)");
  args.add_string("out", "", "output NDJSON file (empty = stdout)");
  args.add_int("threads", 0, "worker threads for distinct solves (0 = auto)");
  args.add_int("chunk", 1024, "requests solved per streamed window");
  args.add_int("min-grain", 16, "minimum solves per scheduled chunk");
  args.add_int("cache-capacity", 4096, "solution-cache entries (0 = uncached)");
  args.add_int("cache-shards", 0, "cache lock shards (0 = auto)");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  MEMPART_REQUIRE(args.get_int("chunk") >= 1, "--chunk must be >= 1");
  ObsSession session(args);

  std::ifstream in_file;
  if (!args.get_string("in").empty()) {
    in_file.open(args.get_string("in"));
    MEMPART_REQUIRE(in_file.good(),
                    "cannot open '" + args.get_string("in") + "'");
  }
  std::istream& in = args.get_string("in").empty() ? std::cin : in_file;
  std::ofstream out_file;
  if (!args.get_string("out").empty()) {
    out_file.open(args.get_string("out"));
    MEMPART_REQUIRE(out_file.good(),
                    "cannot write '" + args.get_string("out") + "'");
  }
  std::ostream& out = args.get_string("out").empty() ? std::cout : out_file;

  const Count capacity = args.get_int("cache-capacity");
  std::optional<SolveCache> cache;
  if (capacity > 0) {
    cache.emplace(capacity, static_cast<Count>(args.get_int("cache-shards")));
  }
  Partitioner partitioner(capacity > 0 ? &*cache : nullptr);
  session.publish_cache(capacity > 0 ? &*cache : nullptr);
  BatchOptions options;
  options.threads = args.get_int("threads");
  options.min_grain = std::max<Count>(1, args.get_int("min-grain"));

  const std::size_t window = static_cast<std::size_t>(args.get_int("chunk"));
  std::vector<BatchLine> lines;
  std::vector<PartitionRequest> requests;
  std::size_t line_number = 0;
  std::size_t solved = 0;
  std::size_t failed = 0;
  bool downstream_closed = false;

  const auto flush = [&] {
    requests.clear();
    for (const BatchLine& line : lines) {
      if (line.request.has_value()) requests.push_back(*line.request);
    }
    const std::vector<BatchResult> results =
        partitioner.solve_many_collect(requests, options);
    std::size_t next = 0;
    for (const BatchLine& line : lines) {
      if (!line.request.has_value()) {
        write_batch_error(out, line.line_number, line.error);
        ++failed;
        continue;
      }
      const BatchResult& result = results[next++];
      if (result.ok()) {
        write_batch_result(out, line.line_number, *result.solution);
        ++solved;
      } else {
        write_batch_error(out, line.line_number, result.error);
        ++failed;
      }
    }
    lines.clear();
    // With SIGPIPE ignored, a downstream reader that went away surfaces as
    // badbit on flush. Stop solving for nobody — but fall through to the
    // summary and telemetry flush below so the partial run is accounted.
    out.flush();
    if (!out.good()) downstream_closed = true;
  };

  std::string text;
  while (!downstream_closed && std::getline(in, text)) {
    ++line_number;
    // Skip blank lines so `jq`-friendly files with trailing newlines work.
    if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
    lines.push_back(parse_batch_line(line_number, text));
    if (lines.size() >= window) flush();
  }
  if (!downstream_closed) flush();

  std::cerr << "batch: " << (solved + failed) << " requests, " << solved
            << " solved, " << failed << " failed";
  if (downstream_closed) std::cerr << "; output pipe closed early";
  if (cache.has_value()) {
    const SolveCache::Stats stats = cache->stats();
    std::cerr << "; cache " << stats.hits << " hits / " << stats.misses
              << " misses / " << stats.evictions << " evictions ("
              << stats.entries << '/' << stats.capacity << " entries, "
              << stats.shards << " shards)";
  }
  std::cerr << '\n';
  session.finish();
  if (downstream_closed) return kExitBrokenPipe;
  return failed == 0 ? 0 : 1;
}

/// The live server for the SIGTERM/SIGINT drain handler. Only cmd_serve
/// writes it; the handler merely loads and pokes request_shutdown(), which
/// is async-signal-safe by contract.
std::atomic<serve::Server*> g_serve_server{nullptr};

extern "C" void handle_serve_signal(int) {
  serve::Server* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_shutdown();
}

int cmd_serve(const std::vector<std::string>& argv) {
  ArgParser args("mempart serve",
                 "Run the persistent partitioning daemon: NDJSON requests "
                 "(the batch schema plus id/tenant tags) over stdin/stdout "
                 "or an AF_UNIX socket, solved through the shared solution "
                 "cache with bounded-queue admission control. SIGTERM/SIGINT "
                 "drain gracefully: every admitted request is answered and "
                 "the final telemetry snapshot is written before exit. See "
                 "docs/SERVING.md.");
  args.add_string("socket", "",
                  "AF_UNIX socket path to listen on (empty = pipe mode over "
                  "stdin/stdout)");
  args.add_int("threads", 0, "solver worker threads (0 = auto)");
  args.add_int("queue-depth", 1024,
               "admission queue bound; requests beyond it get a shed "
               "response instead of queueing");
  args.add_int("max-batch", 32,
               "max queued requests one worker drains into a single "
               "deduplicated solve_many batch");
  args.add_int("cache-capacity", 0,
               "serve from a solve cache of this many entries (0 = the "
               "process-wide cache)");
  args.add_int("cache-shards", 0,
               "cache lock shards when --cache-capacity is given (0 = auto)");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  serve::ServeOptions options;
  options.socket_path = args.get_string("socket");
  options.threads = args.get_int("threads");
  options.queue_depth = args.get_int("queue-depth");
  options.max_batch = args.get_int("max-batch");
  // A sized daemon gets its own cache, as `mempart batch` does; without
  // the flag it serves from the process-wide one.
  std::optional<SolveCache> sized_cache;
  if (args.get_int("cache-capacity") > 0) {
    sized_cache.emplace(args.get_int("cache-capacity"),
                        args.get_int("cache-shards"));
    options.cache = &*sized_cache;
  }
  SolveCache& cache =
      sized_cache.has_value() ? *sized_cache : SolveCache::global();
  serve::Server server(options);
  // Declared after the cache and the server it publishes, so that when a
  // throw unwinds this frame the session's final snapshot runs while both
  // are still alive.
  ObsSession session(args);
  session.publish_cache(&cache);
  session.publish_server(&server);
  g_serve_server.store(&server, std::memory_order_release);
  // Cleared on every way out, a throw included, so the signal handler
  // never reaches a destroyed server.
  struct Unregister {
    ~Unregister() { g_serve_server.store(nullptr, std::memory_order_release); }
  } unregister;

  // sigaction without SA_RESTART (std::signal would set it): the drain
  // signal must interrupt the blocking stdin read / poll so the server
  // notices the shutdown instead of waiting for the next request.
  struct sigaction action {};
  action.sa_handler = handle_serve_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  const serve::ServeSummary summary = options.socket_path.empty()
                                          ? server.run_pipe(std::cin, std::cout)
                                          : server.run_socket();

  std::cerr << "serve: " << summary.admitted << " admitted, "
            << summary.solved << " solved, " << summary.failed << " failed, "
            << summary.shed << " shed";
  if (!options.socket_path.empty()) {
    std::cerr << ", " << summary.connections << " connections";
  }
  if (summary.write_failures > 0) {
    std::cerr << ", " << summary.write_failures << " responses undeliverable";
  }
  if (summary.drained) std::cerr << " (drained on signal)";
  if (summary.downstream_closed) std::cerr << "; output pipe closed early";
  std::cerr << '\n';
  const SolveCache::Stats stats = cache.stats();
  std::cerr << "serve: cache " << stats.hits << " hits / " << stats.misses
            << " misses / " << stats.evictions << " evictions ("
            << stats.entries << '/' << stats.capacity << " entries, "
            << stats.shards << " shards)\n";
  server.publish_stats();
  session.finish();
  return summary.downstream_closed ? kExitBrokenPipe : 0;
}

/// Loads one snapshot file into the flat metric view. Explicit --format
/// wins; otherwise a leading '{' means an NDJSON series, anything else is
/// parsed as OpenMetrics text.
obs::MetricSample load_sample(const std::string& path,
                              const std::string& format) {
  const std::string text = read_file(path);
  std::string resolved = format;
  if (resolved == "auto") {
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    resolved = first != std::string::npos && text[first] == '{'
                   ? "ndjson"
                   : "openmetrics";
  }
  MEMPART_REQUIRE(resolved == "openmetrics" || resolved == "ndjson",
                  "--format must be auto, openmetrics or ndjson");
  return resolved == "ndjson" ? obs::last_ndjson_sample(text)
                              : obs::parse_openmetrics(text);
}

std::string render_stats_table(const obs::MetricSample& sample) {
  TextTable table;
  table.row({"metric", "value"});
  table.separator();
  for (const auto& [name, value] : sample) {
    table.add_row();
    table.cell(name);
    // Counters and nanosecond percentiles are integers; keep them free of
    // a ".00" tail so the table greps like the source formats.
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      table.cell(static_cast<std::int64_t>(value));
    } else {
      table.cell(value, 3);
    }
  }
  return table.to_string();
}

int cmd_stats(const std::vector<std::string>& argv) {
  ArgParser args("mempart stats",
                 "Render a metrics snapshot written by --openmetrics, "
                 "--ndjson or --metrics as an aligned table (one-shot, or "
                 "--watch to follow a live file).");
  args.add_string("in", "", "snapshot file: OpenMetrics text or NDJSON "
                            "series (also accepted as a positional)");
  args.add_string("format", "auto", "input format: auto | openmetrics | "
                                    "ndjson");
  args.add_bool("watch", "re-read and re-render every --interval-ms until "
                         "interrupted");
  args.add_int("interval-ms", 1000, "refresh period for --watch");
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  std::string path = args.get_string("in");
  if (path.empty() && !args.positionals().empty()) {
    path = args.positionals().front();
  }
  MEMPART_REQUIRE(!path.empty(),
                  "mempart stats: need --in FILE (or a positional path)");
  if (!args.get_bool("watch")) {
    std::cout << render_stats_table(load_sample(path, args.get_string("format")));
    return 0;
  }
  const auto interval =
      std::chrono::milliseconds(std::max(1, static_cast<int>(args.get_int("interval-ms"))));
  for (;;) {
    std::string body;
    try {
      body = render_stats_table(load_sample(path, args.get_string("format")));
    } catch (const Error& e) {
      // A snapshot mid-rewrite can be momentarily unparsable; keep watching.
      body = std::string("(") + e.what() + ")\n";
    }
    // ANSI home+clear keeps the refresh flicker-free on any vt100 terminal.
    std::cout << "\033[H\033[2J" << path << '\n' << body << std::flush;
    std::this_thread::sleep_for(interval);
  }
}

int cmd_table1(const std::vector<std::string>& argv) {
  ArgParser args("mempart table1",
                 "Compare ours vs the LTB baseline on the paper's benchmarks.");
  args.add_int("threads", 1,
               "worker threads sharding the per-pattern solves (0 = auto); "
               "output order is fixed");
  add_obs_flags(args);
  args.parse(argv);
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }
  const Count threads = args.get_int("threads");
  // Before the pool: workers spawned later inherit the metrics switch, so
  // the bank_search.minimize.ns / ltb.alpha_search.ns series cover the
  // solves running on pool threads too.
  ObsSession obs_session(args);
  const auto all_patterns = patterns::table1_patterns();
  struct Row {
    std::string line;
  };
  ThreadPool pool(threads == 0 ? Count{0} : std::max<Count>(1, threads));
  const std::vector<Row> rows = pool.map_chunked<Row>(
      static_cast<Count>(all_patterns.size()), 1, [&](Count i) {
        const Pattern& p = all_patterns[static_cast<size_t>(i)];
        PartitionRequest req;
        req.pattern = p;
        const PartitionSolution ours = Partitioner::solve(req);
        const baseline::LtbSolution ltb = baseline::ltb_solve(p);
        std::ostringstream line;
        line << p.name() << ": ours " << ours.num_banks() << " banks / "
             << ours.ops.arithmetic() << " ops, LTB " << ltb.num_banks
             << " banks / " << ltb.ops.arithmetic() << " ops\n";
        return Row{line.str()};
      });
  for (const Row& row : rows) std::cout << row.line;
  obs_session.finish();
  return 0;
}

int usage() {
  std::cout <<
      "mempart <command> [flags]\n"
      "commands:\n"
      "  solve    partition an array for an access pattern\n"
      "  profile  solve + full loop-nest replay, exporting trace/metrics\n"
      "  verilog  emit the address-generator RTL for a solution\n"
      "  parse    extract and solve the pattern of a C-like stencil file\n"
      "  check    verify a solution record or replay a fuzz repro JSON\n"
      "  fuzz     differential fuzzing against the brute-force oracle\n"
      "  batch    stream NDJSON requests through the cached batch solver\n"
      "  serve    persistent partitioning daemon (pipe or unix socket)\n"
      "  stats    render an --openmetrics/--ndjson snapshot as a table\n"
      "  table1   quick ours-vs-LTB comparison on the paper's benchmarks\n"
      "run 'mempart <command> --help' for per-command flags\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Crash dumps are a CLI-wide contract: any abnormal exit writes the
  // flight recorder's last events to MEMPART_FLIGHT_DIR (default cwd).
  mempart::obs::install_flight_crash_handler();
  // batch/serve write NDJSON to pipes whose reader may exit first; the
  // default SIGPIPE disposition would kill the process mid-drain. Ignored,
  // the write fails with EPIPE instead and the commands exit with
  // kExitBrokenPipe after flushing their telemetry.
  ::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> rest(argv + 2, argv + argc);
  try {
    // Garbage in a MEMPART_* variable is a hard startup error with a
    // diagnostic naming the variable — not a silent fallback discovered
    // three flags later (see common/env.h).
    mempart::validate_env();
    if (command == "solve") return cmd_solve(rest);
    if (command == "profile") return cmd_profile(rest);
    if (command == "verilog") return cmd_verilog(rest);
    if (command == "parse") return cmd_parse(rest);
    if (command == "check") return cmd_check(rest);
    if (command == "fuzz") return cmd_fuzz(rest);
    if (command == "batch") return cmd_batch(rest);
    if (command == "serve") return cmd_serve(rest);
    if (command == "stats") return cmd_stats(rest);
    if (command == "table1") return cmd_table1(rest);
    if (command == "--help" || command == "-h") {
      usage();
      return 0;
    }
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
