#include "serve/request.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/errors.h"
#include "obs/trace.h"

namespace mempart::serve {
namespace {

/// Recursive-descent parser over the serve request grammar — the
/// check::CheckConfig schema plus `id`/`tenant`. A separate parser (rather
/// than loosening CheckConfig::from_json) because the repro-file parser
/// rejecting unknown keys is a feature there: a fuzz repro with a stray key
/// is corruption, while a serve request with serving tags is the contract.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          default: out.push_back(e);
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  std::int64_t parse_int() {
    skip_ws();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    // A sign needs a digit after it: strtoll would read a lone sign as 0.
    const size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) fail("expected integer");
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text_.c_str() + start, &end, 10);
    if (errno == ERANGE) fail("integer out of 64-bit range");
    return v;
  }

  std::vector<std::int64_t> parse_int_array() {
    std::vector<std::int64_t> out;
    expect('[');
    if (try_consume(']')) return out;
    do {
      out.push_back(parse_int());
    } while (try_consume(','));
    expect(']');
    return out;
  }

  void expect_end() {
    skip_ws();
    if (pos_ < text_.size()) fail("trailing content after request");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& why) {
    std::ostringstream os;
    os << "serve request: " << why << " at byte " << pos_;
    throw InvalidArgument(os.str());
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

/// Opens the response object and emits whichever tag fields the request
/// carried; empty tags are omitted entirely so untagged pipelines don't
/// drag `"id": ""` noise through every line.
void append_tags(std::ostringstream& os, const ServeRequest& request) {
  os << '{';
  if (!request.id.empty()) {
    os << "\"id\": \"" << obs::json_escape(request.id) << "\", ";
  }
  if (!request.tenant.empty()) {
    os << "\"tenant\": \"" << obs::json_escape(request.tenant) << "\", ";
  }
}

}  // namespace

bool parse_request(const std::string& line, ServeRequest& out,
                   std::string* error) {
  out = ServeRequest{};
  std::vector<NdIndex> offsets;
  std::vector<Count> shape;
  try {
    Parser p(line);
    p.expect('{');
    if (!p.try_consume('}')) {
      do {
        const std::string key = p.parse_string();
        p.expect(':');
        if (key == "id") {
          out.id = p.parse_string();
        } else if (key == "tenant") {
          out.tenant = p.parse_string();
        } else if (key == "offsets") {
          p.expect('[');
          if (!p.try_consume(']')) {
            do {
              const auto coords = p.parse_int_array();
              offsets.emplace_back(coords.begin(), coords.end());
            } while (p.try_consume(','));
            p.expect(']');
          }
        } else if (key == "shape") {
          const auto extents = p.parse_int_array();
          shape.assign(extents.begin(), extents.end());
        } else if (key == "max_banks") {
          out.request.max_banks = p.parse_int();
        } else if (key == "bank_bandwidth") {
          out.request.bank_bandwidth = p.parse_int();
        } else if (key == "strategy") {
          const std::string v = p.parse_string();
          if (v == "fast_fold") {
            out.request.strategy = ConstraintStrategy::kFastFold;
          } else if (v == "same_size") {
            out.request.strategy = ConstraintStrategy::kSameSize;
          } else {
            p.fail("unknown strategy '" + v + "'");
          }
        } else if (key == "tail") {
          const std::string v = p.parse_string();
          if (v == "padded") {
            out.request.tail = TailPolicy::kPadded;
          } else if (v == "compact") {
            out.request.tail = TailPolicy::kCompact;
          } else {
            p.fail("unknown tail policy '" + v + "'");
          }
        } else if (key == "seed") {
          p.parse_int();  // provenance only; accepted and ignored
        } else if (key == "note") {
          p.parse_string();  // provenance only; accepted and ignored
        } else {
          p.fail("unknown key '" + key + "'");
        }
      } while (p.try_consume(','));
      p.expect('}');
    }
    p.expect_end();
    // Pattern/NdShape validate their own invariants (duplicate offsets,
    // ragged ranks, zero extents) with solver-grade diagnostics.
    out.request.pattern = Pattern(offsets);
    if (!shape.empty()) out.request.array_shape = NdShape(shape);
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
  os << "\"ok\": false, \"error\": \"" << obs::json_escape(error) << "\"}";
  return os.str();
}

std::string shed_response(const ServeRequest& request,
                          const std::string& reason) {
  std::ostringstream os;
  append_tags(os, request);
  os << "\"ok\": false, \"shed\": true, \"error\": \""
     << obs::json_escape(reason) << "\"}";
  return os.str();
}

}  // namespace mempart::serve
