#include "check/config.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/errors.h"

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

const char* strategy_name(ConstraintStrategy s) {
  return s == ConstraintStrategy::kFastFold ? "fast_fold" : "same_size";
}

const char* tail_name(TailPolicy t) {
  return t == TailPolicy::kPadded ? "padded" : "compact";
}

/// Minimal recursive-descent parser for the JSON subset to_json() emits:
/// objects, arrays, strings (with the escapes above), and signed integers.
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
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
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

  std::uint64_t parse_uint() {
    skip_ws();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected unsigned integer");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text_.c_str() + start, &end, 10);
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

  /// Fails unless only whitespace remains — a repro file with trailing
  /// garbage is more likely truncation or a bad merge than intent.
  void expect_end() {
    skip_ws();
    if (pos_ < text_.size()) fail("trailing content after document");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& why) {
    std::ostringstream os;
    os << "CheckConfig::from_json: " << why << " at byte " << pos_;
    throw InvalidArgument(os.str());
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string CheckConfig::to_json() const {
  std::ostringstream os;
  os << "{\n  \"offsets\": [";
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (i > 0) os << ", ";
    os << '[';
    for (size_t d = 0; d < offsets[i].size(); ++d) {
      if (d > 0) os << ", ";
      os << offsets[i][d];
    }
    os << ']';
  }
  os << "],\n  \"shape\": [";
  for (size_t d = 0; d < shape.size(); ++d) {
    if (d > 0) os << ", ";
    os << shape[d];
  }
  os << "],\n  \"max_banks\": " << max_banks
     << ",\n  \"bank_bandwidth\": " << bank_bandwidth << ",\n  \"strategy\": \""
     << strategy_name(strategy) << "\",\n  \"tail\": \"" << tail_name(tail)
     << "\",\n  \"seed\": " << seed << ",\n  \"note\": ";
  append_escaped(os, note);
  os << "\n}\n";
  return os.str();
}

CheckConfig CheckConfig::from_json(const std::string& text) {
  Parser p(text);
  CheckConfig config;
  p.expect('{');
  if (!p.try_consume('}')) {
    do {
      const std::string key = p.parse_string();
      p.expect(':');
      if (key == "offsets") {
        p.expect('[');
        if (!p.try_consume(']')) {
          do {
            const auto coords = p.parse_int_array();
            config.offsets.emplace_back(coords.begin(), coords.end());
          } while (p.try_consume(','));
          p.expect(']');
        }
      } else if (key == "shape") {
        const auto extents = p.parse_int_array();
        config.shape.assign(extents.begin(), extents.end());
      } else if (key == "max_banks") {
        config.max_banks = p.parse_int();
      } else if (key == "bank_bandwidth") {
        config.bank_bandwidth = p.parse_int();
      } else if (key == "strategy") {
        const std::string v = p.parse_string();
        if (v == "fast_fold") {
          config.strategy = ConstraintStrategy::kFastFold;
        } else if (v == "same_size") {
          config.strategy = ConstraintStrategy::kSameSize;
        } else {
          p.fail("unknown strategy '" + v + "'");
        }
      } else if (key == "tail") {
        const std::string v = p.parse_string();
        if (v == "padded") {
          config.tail = TailPolicy::kPadded;
        } else if (v == "compact") {
          config.tail = TailPolicy::kCompact;
        } else {
          p.fail("unknown tail policy '" + v + "'");
        }
      } else if (key == "seed") {
        config.seed = p.parse_uint();
      } else if (key == "note") {
        config.note = p.parse_string();
      } else {
        p.fail("unknown key '" + key + "'");
      }
    } while (p.try_consume(','));
    p.expect('}');
  }
  p.expect_end();
  return config;
}

}  // namespace mempart::check
