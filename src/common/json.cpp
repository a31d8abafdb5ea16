#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>

#include "common/errors.h"

namespace mempart {
namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | cp >> 6);
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | cp >> 12);
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | cp >> 18);
    out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace json {

void Reader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
    ++pos_;
  }
}

void Reader::expect(char c, std::string_view why) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) fail(why);
  ++pos_;
}

void Reader::open(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(c == '{' ? "expected '{'" : "expected '['");
  }
  if (depth_ == kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
  ++pos_;
  ++depth_;
  first_ = true;
}

/// Consumes the closing `c` and returns true, or else the `,` before the
/// next member or item (none before the first) and returns false.
bool Reader::close(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    --depth_;
    first_ = false;
    return true;
  }
  if (!first_) {
    expect(',', c == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
  }
  first_ = false;
  return false;
}

void Reader::begin_object() { open('{'); }

bool Reader::next_key(std::string_view& key) {
  if (close('}')) return false;
  key = read_string();
  expect(':', "expected ':'");
  return true;
}

void Reader::begin_array() { open('['); }

bool Reader::next_item() { return !close(']'); }

std::int64_t Reader::read_int() {
  skip_ws();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
    ++pos_;
  }
  const std::size_t digits = pos_;
  while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  if (pos_ == digits) fail("expected integer");
  // from_chars takes a leading '-' but not a '+'.
  const char* first = text_.data() + (text_[start] == '+' ? digits : start);
  std::int64_t value = 0;
  if (std::from_chars(first, text_.data() + pos_, value).ec != std::errc()) {
    fail("integer out of 64-bit range");
  }
  return value;
}

std::uint64_t Reader::read_uint() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  if (pos_ == start) fail("expected unsigned integer");
  std::uint64_t value = 0;
  if (std::from_chars(text_.data() + start, text_.data() + pos_, value).ec !=
      std::errc()) {
    fail("integer out of 64-bit range");
  }
  return value;
}

double Reader::read_number() {
  skip_ws();
  const std::size_t start = pos_;
  const auto at = [this](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto digits = [this](std::string_view why) {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ == from) fail(why);
  };
  if (at('-')) ++pos_;
  if (at('0')) {
    ++pos_;
  } else {
    digits("expected a number");
  }
  if (at('.')) {
    ++pos_;
    digits("expected a digit after '.'");
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    digits("expected an exponent");
  }
  double value = 0.0;
  if (std::from_chars(text_.data() + start, text_.data() + pos_, value).ec !=
      std::errc()) {
    fail("number out of range");
  }
  return value;
}

std::uint32_t Reader::read_hex4() {
  const char* first = text_.data() + pos_;
  const std::size_t avail = std::min<std::size_t>(4, text_.size() - pos_);
  std::uint32_t value = 0;
  const char* end = std::from_chars(first, first + avail, value, 16).ptr;
  pos_ += static_cast<std::size_t>(end - first);  // at the first non-hex byte
  if (end != first + 4) {
    fail(pos_ == text_.size() ? "unterminated string"
                              : "bad hex digit in \\u escape");
  }
  return value;
}

std::string_view Reader::read_string() {
  expect('"', "expected string");
  const std::size_t start = pos_;
  bool escaped = false;  // once true, the string so far is in scratch_
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return escaped ? std::string_view(scratch_)
                     : text_.substr(start, pos_ - 1 - start);
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control byte in string");
    }
    if (c != '\\') {
      if (escaped) scratch_ += c;
      ++pos_;
      continue;
    }
    if (!escaped) scratch_.assign(text_.substr(start, pos_ - start));
    escaped = true;
    const std::size_t escape = pos_++;
    if (pos_ >= text_.size()) break;
    switch (text_[pos_++]) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        std::uint32_t cp = read_hex4();
        if (cp >= 0xD800 && cp < 0xE000) {
          // A high surrogate must be followed by a low one; the pair is
          // one code point above U+FFFF.
          std::uint32_t low = 0;
          if (cp < 0xDC00 && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            low = read_hex4();
          }
          if (low < 0xDC00 || low >= 0xE000) {
            pos_ = escape;
            fail("lone surrogate");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(scratch_, cp);
        break;
      }
      default:
        pos_ = escape;
        fail("bad escape");
    }
  }
  fail("unterminated string");
}

void Reader::skip_value() {
  std::string_view key;
  switch (const char c = peek()) {
    case '{':
      begin_object();
      while (next_key(key)) skip_value();
      return;
    case '[':
      begin_array();
      while (next_item()) skip_value();
      return;
    case '"':
      (void)read_string();
      return;
    case 't':
    case 'f':
    case 'n': {
      const std::string_view literal =
          c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (text_.substr(pos_, literal.size()) != literal) fail("bad literal");
      pos_ += literal.size();
      return;
    }
    default:
      if (c != '-' && !is_digit(c)) fail("expected a value");
      (void)read_number();
  }
}

char Reader::peek() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

void Reader::expect_end() {
  skip_ws();
  if (pos_ < text_.size()) fail("trailing content after document");
}

void Reader::fail(std::string_view why) const {
  std::string message(context_);
  message += ": ";
  message += why;
  message += " at byte ";
  message += std::to_string(pos_);
  throw InvalidArgument(message);
}

}  // namespace json
}  // namespace mempart
