// NDJSON request/response grammar of `mempart serve`.
//
// A request line is the `mempart batch` CheckConfig schema, decoded by the
// same field table (check::CheckConfig::read_field) through the strict
// reader in common/json.h, plus two serving fields, both optional strings
// echoed verbatim in the response (a tag the request didn't carry is
// omitted from the response entirely):
//
//   {"id": "c3-17", "tenant": "imaging",
//    "offsets": [[0,0],[0,1],[1,0]], "shape": [640,480],
//    "max_banks": 0, "bank_bandwidth": 1,
//    "strategy": "fast_fold", "tail": "padded",
//    "seed": 0, "note": "provenance"}
//
// `id` is the client's correlation key — serve-mode responses are written
// as solves complete, NOT in request order (the pipe `mempart batch` keeps
// input order; a daemon cannot without head-of-line blocking), so clients
// match responses to requests by id. `tenant` tags the request's owner for
// multi-tenant accounting. `seed` (an unsigned 64-bit integer) and `note`
// are decoded as in the batch/fuzz corpus, then dropped. Strings take every
// JSON escape, `\uXXXX` and surrogate pairs included, decoded to UTF-8; a
// raw control byte, a lone surrogate or bad hex is an error naming its
// byte offset.
//
// Response lines (docs/SERVING.md has the full field table):
//
//   {"id": ..., "tenant": ..., "ok": true, "num_banks": N, ...}
//   {"id": ..., "tenant": ..., "ok": false, "error": "..."}
//   {"id": ..., "tenant": ..., "ok": false, "shed": true, "error": "..."}
//
// A `shed` response is the admission-control backpressure signal: the
// request was syntactically fine but the bounded queue was full (or the
// server is draining), so it was rejected WITHOUT being solved. Clients
// should back off and retry; nothing about the request itself is wrong.
#pragma once

#include <string>
#include <string_view>

#include "core/partitioner.h"

namespace mempart::serve {

/// One parsed serve request: the solver inputs plus the serving tags.
struct ServeRequest {
  std::string id;      ///< client correlation key, echoed verbatim
  std::string tenant;  ///< owner tag, echoed verbatim
  PartitionRequest request;
};

/// Parses one NDJSON request line into `out`. Returns true on success;
/// on failure returns false with the diagnostic in *error. `out.id` and
/// `out.tenant` are filled best-effort even on failure (any tag parsed
/// before the malformed token survives), so error responses can still be
/// correlated.
[[nodiscard]] bool parse_request(std::string_view line, ServeRequest& out,
                                 std::string* error);

/// Renders the success response for a solved request.
[[nodiscard]] std::string ok_response(const ServeRequest& request,
                                      const PartitionSolution& solution);

/// Renders the failure response (parse error or solver rejection).
[[nodiscard]] std::string error_response(const ServeRequest& request,
                                         const std::string& error);

/// Renders the admission-control backpressure response.
[[nodiscard]] std::string shed_response(const ServeRequest& request,
                                        const std::string& reason);

}  // namespace mempart::serve
