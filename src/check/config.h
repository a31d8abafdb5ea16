// One differential-check configuration: everything needed to reproduce a
// single solver/simulator cross-check, serialisable to and from JSON so a
// fuzz failure can be replayed byte-for-byte (`mempart check --repro f.json`)
// and checked in as a seed-corpus regression. Its JSON schema is also the
// request grammar of `mempart batch` and `mempart serve`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/nd.h"
#include "common/types.h"
#include "core/bank_constraint.h"
#include "core/bank_mapping.h"
#include "core/partitioner.h"

namespace mempart::check {

/// Plain-data description of one partitioning problem instance plus the
/// solver options to exercise. Deliberately NOT built on Pattern/NdShape so
/// that invalid inputs (duplicate offsets, zero extents, ragged ranks) are
/// representable — probing how the library rejects them is the point.
struct CheckConfig {
  std::vector<NdIndex> offsets;     ///< pattern offsets, possibly degenerate
  std::vector<Count> shape;         ///< array extents; empty = pattern-only
  Count max_banks = 0;              ///< N_max, 0 = unconstrained
  Count bank_bandwidth = 1;         ///< ports per bank B
  ConstraintStrategy strategy = ConstraintStrategy::kFastFold;
  TailPolicy tail = TailPolicy::kPadded;
  std::uint64_t seed = 0;           ///< generator seed (provenance only)
  std::string note;                 ///< free-form provenance / triage hint

  [[nodiscard]] std::string to_json() const;

  /// Parses a config previously produced by to_json() (or hand-written in
  /// the same schema). Throws InvalidArgument on malformed input or on a
  /// key outside the schema.
  static CheckConfig from_json(std::string_view text);

  /// Reads the config object `in` is at; from_json is this plus a check
  /// that nothing follows the object.
  static CheckConfig read(json::Reader& in);

  /// The schema's one field table, shared by from_json, repro files and
  /// serve requests: decodes the value of member `key` from `in` when
  /// `key` names a field above, else returns false having read nothing.
  [[nodiscard]] bool read_field(json::Reader& in, std::string_view key);

  friend bool operator==(const CheckConfig&, const CheckConfig&) = default;
};

/// The solver request a config describes; `seed` and `note` are dropped.
/// Pattern and NdShape check their own invariants here (duplicate
/// offsets, ragged ranks, zero extents), so an invalid config throws
/// InvalidArgument. Shared by `mempart batch` and `mempart serve`.
[[nodiscard]] PartitionRequest to_request(CheckConfig config);

}  // namespace mempart::check
