// Fuzzing orchestrator: generate -> differential -> shrink -> repro.
//
// Each iteration draws a config from the seeded generator, runs the full
// differential matrix, and — on divergence — minimises the config with the
// shrinking reducer and writes a structured JSON repro (config + observed
// divergences) for triage and corpus check-in. Progress and outcomes flow
// into the obs metrics registry under "check.fuzz.*".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/config.h"
#include "check/differential.h"
#include "check/generator.h"

namespace mempart::check {

/// Controls one fuzzing run.
struct FuzzOptions {
  std::uint64_t seed = 1;       ///< generator seed; same seed = same run
  Count iters = 1000;           ///< configs to draw
  std::string repro_dir = ".";  ///< where repro JSON files are written
  bool shrink = true;           ///< minimise failing configs before writing
  GeneratorOptions generator;   ///< shape of the configs drawn
};

/// What one run did.
struct FuzzSummary {
  Count iters_run = 0;
  Count ok = 0;             ///< configs with an empty divergence list
  Count clean_rejects = 0;  ///< configs the library rejected with an Error
  Count divergences = 0;    ///< configs with at least one divergence
  std::vector<std::string> repro_paths;  ///< one JSON file per divergence
  /// Flight-recorder dumps written next to each repro (Chrome-trace JSON of
  /// the events leading up to the divergence). Empty when the recorder is
  /// disabled (MEMPART_FLIGHT_CAPACITY=0).
  std::vector<std::string> flight_paths;

  [[nodiscard]] bool clean() const { return divergences == 0; }
};

/// Serialises a failing config with its divergences as a repro document.
/// The "config" object round-trips through CheckConfig::from_json.
[[nodiscard]] std::string repro_json(const CheckConfig& config,
                                     const DiffReport& report);

/// Extracts the embedded config from a repro document produced by
/// repro_json(), skipping the envelope's other members (also accepts a
/// bare config document). Throws InvalidArgument on malformed input.
[[nodiscard]] CheckConfig config_from_repro(std::string_view text);

/// Runs the fuzzer. Throws InvalidArgument on unusable options (iters < 1);
/// filesystem errors while writing repros surface as InvalidState.
[[nodiscard]] FuzzSummary run_fuzz(const FuzzOptions& options);

}  // namespace mempart::check
