// Strict JSON: the one reader for every JSON document the program takes in
// (serve and batch request lines, repro files, NDJSON metric samples) and
// the one string escaper every JSON writer uses.
//
// Reader is a pull reader over a std::string_view. It builds no DOM: the
// caller walks the document with begin_object()/next_key() and
// begin_array()/next_item() and reads each value with the typed read that
// its schema expects, or drops it with skip_value(). Keys and strings come
// back as views into the input, so reading one allocates nothing unless
// it holds an escape. Every failure throws InvalidArgument of the form
// "<context>: <why> at byte N", N being the byte offset into the input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mempart {

/// Escapes `text` for use inside a JSON string literal: `"` and `\`, and
/// every byte below 0x20 (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
/// Other bytes, multi-byte UTF-8 included, pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view text);

namespace json {

/// Deepest nesting of objects and arrays a document may have. Every
/// schema the program reads nests at most four deep; the bound keeps the
/// recursion of skip_value() and of callers' own walks off the stack's end.
inline constexpr int kMaxDepth = 64;

class Reader {
 public:
  /// Reads `text`; `context` prefixes every error ("serve request", ...).
  /// Both must outlive the reader.
  Reader(std::string_view text, std::string_view context) noexcept
      : text_(text), context_(context) {}

  /// Consumes the `{` that opens an object.
  void begin_object();

  /// Steps to the next member of the innermost open object. Returns true
  /// with `key` set and the `:` consumed, the value next to read; returns
  /// false once the closing `}` is consumed. `key` is valid until the next
  /// string is read.
  [[nodiscard]] bool next_key(std::string_view& key);

  /// Consumes the `[` that opens an array.
  void begin_array();

  /// Steps to the next item of the innermost open array: true when a value
  /// is next to read, false once the closing `]` is consumed.
  [[nodiscard]] bool next_item();

  /// A signed integer: an optional `+` or `-`, then at least one digit,
  /// within the 64-bit range. No fraction or exponent.
  [[nodiscard]] std::int64_t read_int();

  /// An unsigned integer: at least one digit, no sign, within 64 bits.
  [[nodiscard]] std::uint64_t read_uint();

  /// Any JSON number, as a finite double.
  [[nodiscard]] double read_number();

  /// A string with every escape decoded, `\u` surrogate pairs to one UTF-8
  /// code point. A string without escapes is a view into the input; one
  /// with escapes is decoded into a buffer that the next string read
  /// reuses. Lone surrogates, bad hex digits and raw bytes below 0x20 are
  /// errors.
  [[nodiscard]] std::string_view read_string();

  /// Reads and drops one value of any kind, checking its grammar.
  void skip_value();

  /// The first byte of the next value after whitespace (`{`, `[`, `"`,
  /// `t`, `f`, `n`, `-` or a digit for a well-formed one), or '\0' at the
  /// end of the input. Consumes nothing but the whitespace.
  [[nodiscard]] char peek();

  /// Fails unless only whitespace remains.
  void expect_end();

  /// Throws InvalidArgument "<context>: <why> at byte <offset>".
  [[noreturn]] void fail(std::string_view why) const;

 private:
  void skip_ws();
  void expect(char c, std::string_view why);
  void open(char c);
  bool close(char c);
  std::uint32_t read_hex4();

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// True right after `{` or `[`: the next member or item takes no comma.
  bool first_ = false;
  std::string scratch_;  ///< decoded form of the last escaped string
};

}  // namespace json
}  // namespace mempart
