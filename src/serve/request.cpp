#include "serve/request.h"

#include <sstream>
#include <utility>

#include "check/config.h"
#include "common/errors.h"
#include "common/json.h"

namespace mempart::serve {
namespace {

/// Opens the response object and emits whichever tag fields the request
/// carried; empty tags are omitted entirely so untagged pipelines don't
/// drag `"id": ""` noise through every line.
void append_tags(std::ostringstream& os, const ServeRequest& request) {
  os << '{';
  if (!request.id.empty()) {
    os << "\"id\": \"" << json_escape(request.id) << "\", ";
  }
  if (!request.tenant.empty()) {
    os << "\"tenant\": \"" << json_escape(request.tenant) << "\", ";
  }
}

}  // namespace

bool parse_request(std::string_view line, ServeRequest& out,
                   std::string* error) {
  out = ServeRequest{};
  try {
    json::Reader in(line, "serve request");
    check::CheckConfig config;
    in.begin_object();
    for (std::string_view key; in.next_key(key);) {
      if (key == "id") {
        out.id = in.read_string();
      } else if (key == "tenant") {
        out.tenant = in.read_string();
      } else if (!config.read_field(in, key)) {
        in.fail("unknown key '" + std::string(key) + "'");
      }
    }
    in.expect_end();
    out.request = check::to_request(std::move(config));
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

std::string ok_response(const ServeRequest& request,
                        const PartitionSolution& solution) {
  std::ostringstream os;
  append_tags(os, request);
  os << "\"ok\": true, \"num_banks\": " << solution.num_banks()
     << ", \"delta_ii\": " << solution.delta_ii()
     << ", \"fold_factor\": " << solution.constraint.fold_factor
     << ", \"alpha\": [";
  const std::vector<Count>& alpha = solution.transform.alpha();
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    os << (i ? ", " : "") << alpha[i];
  }
  os << "], \"pattern_banks\": [";
  for (std::size_t i = 0; i < solution.pattern_banks.size(); ++i) {
    os << (i ? ", " : "") << solution.pattern_banks[i];
  }
  os << "]";
  if (solution.mapping.has_value()) {
    os << ", \"storage_overhead\": " << solution.storage_overhead_elements();
  }
  os << "}";
  return os.str();
}

std::string error_response(const ServeRequest& request,
                           const std::string& error) {
  std::ostringstream os;
  append_tags(os, request);
  os << "\"ok\": false, \"error\": \"" << json_escape(error) << "\"}";
  return os.str();
}

std::string shed_response(const ServeRequest& request,
                          const std::string& reason) {
  std::ostringstream os;
  append_tags(os, request);
  os << "\"ok\": false, \"shed\": true, \"error\": \""
     << json_escape(reason) << "\"}";
  return os.str();
}

}  // namespace mempart::serve
