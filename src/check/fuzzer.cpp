#include "check/fuzzer.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/shrink.h"
#include "common/errors.h"
#include "common/simd.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::check {
namespace {

void append_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

/// Extracts the value of the top-level "config" key by brace matching
/// (string-aware). Returns the whole text when the key is absent, so bare
/// config documents replay too.
std::string extract_config_object(const std::string& text) {
  const size_t key = text.find("\"config\"");
  if (key == std::string::npos) return text;
  size_t pos = text.find('{', key);
  MEMPART_REQUIRE(pos != std::string::npos,
                  "config_from_repro: \"config\" key has no object value");
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) return text.substr(pos, i - pos + 1);
    }
  }
  throw InvalidArgument("config_from_repro: unbalanced braces in repro");
}

}  // namespace

std::string repro_json(const CheckConfig& config, const DiffReport& report) {
  std::ostringstream os;
  os << "{\n\"schema\": \"mempart-check-repro-v1\",\n\"config\": "
     << config.to_json() << ",\n\"exhaustive\": "
     << (report.exhaustive ? "true" : "false")
     << ",\n\"oracle_positions\": " << report.oracle_positions
     << ",\n\"divergences\": [";
  for (size_t i = 0; i < report.divergences.size(); ++i) {
    if (i > 0) os << ',';
    os << "\n  {\"kind\": ";
    append_escaped(os, report.divergences[i].kind);
    os << ", \"detail\": ";
    append_escaped(os, report.divergences[i].detail);
    os << '}';
  }
  os << "\n]\n}\n";
  return os.str();
}

CheckConfig config_from_repro(const std::string& text) {
  return CheckConfig::from_json(extract_config_object(text));
}

FuzzSummary run_fuzz(const FuzzOptions& options) {
  MEMPART_REQUIRE(options.iters >= 1, "run_fuzz: iters must be >= 1");
  obs::Span span("check.fuzz");
  span.arg("iters", options.iters).arg("seed",
                                       static_cast<Count>(options.seed));

  Rng rng(options.seed);
  FuzzSummary summary;
  // Randomise the ambient SIMD dispatch tier per iteration so the fuzz
  // corpus exercises every generation/scoring kernel, not just the widest
  // one this host supports. (run_config's plan-vs-map and simulate legs
  // additionally sweep all tiers deterministically; this varies which tier
  // the rest of the pipeline — solver, convolution, stats — runs under.)
  const simd::TierOverride ambient_tier(simd::active_tier());
  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  for (Count iter = 0; iter < options.iters; ++iter) {
    simd::set_tier(tiers[static_cast<size_t>(
        rng.uniform(0, static_cast<Count>(tiers.size()) - 1))]);
    CheckConfig config = generate_config(rng, options.generator);
    config.seed = options.seed;
    DiffReport report = run_config(config);
    ++summary.iters_run;
    obs::count("check.fuzz.iterations");

    if (report.diverged()) {
      ++summary.divergences;
      obs::count("check.fuzz.divergences");
      if (options.shrink) {
        // Preserve the first divergence kind while minimising: a shrink
        // that trades one bug for a different one would poison triage.
        const std::string kind = report.divergences.front().kind;
        const FailurePredicate predicate = [&kind](const CheckConfig& c) {
          const DiffReport r = run_config(c);
          return std::any_of(
              r.divergences.begin(), r.divergences.end(),
              [&kind](const Divergence& d) { return d.kind == kind; });
        };
        config = shrink_config(config, predicate);
        report = run_config(config);
      }
      std::ostringstream name;
      name << options.repro_dir << "/repro_" << options.seed << '_' << iter
           << ".json";
      std::ofstream out(name.str());
      MEMPART_REQUIRE(out.good(),
                      "run_fuzz: cannot open repro file for writing: " +
                          name.str());
      out << repro_json(config, report);
      out.close();
      if (!out.good()) {
        throw InvalidState("run_fuzz: failed writing repro: " + name.str());
      }
      summary.repro_paths.push_back(name.str());
      // The flight recorder holds the trace of exactly this divergence (the
      // re-run after shrinking is the last thing it saw). Dump it next to
      // the repro so triage gets a timeline, not just the end state.
      if (obs::flight_enabled()) {
        std::ostringstream flight_name;
        flight_name << options.repro_dir << "/repro_" << options.seed << '_'
                    << iter << "_flight.json";
        if (obs::flight_dump_to_file(flight_name.str())) {
          summary.flight_paths.push_back(flight_name.str());
        }
      }
    } else if (report.clean_reject) {
      ++summary.clean_rejects;
      obs::count("check.fuzz.clean_rejects");
    } else {
      ++summary.ok;
      obs::count("check.fuzz.ok");
    }
  }
  span.arg("divergences", summary.divergences)
      .arg("clean_rejects", summary.clean_rejects);
  obs::gauge("check.fuzz.last_run.divergences",
             static_cast<double>(summary.divergences));
  return summary;
}

}  // namespace mempart::check
