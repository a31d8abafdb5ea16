// Tiny JSON DOM for validating the obs sinks' output in tests, built by
// the program's own strict reader (common/json.h) so tests can assert
// structure and round-trip values without a JSON library dependency.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"

namespace mempart::testing {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const auto it = members.find(key);
    if (it == members.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return members.find(key) != members.end();
  }
};

class JsonParser {
 public:
  /// Parses `text`, throwing InvalidArgument on any syntax error or
  /// trailing garbage — the test's validity oracle.
  static JsonValue parse(const std::string& text) {
    json::Reader in(text, "test json");
    JsonValue value = read(in);
    in.expect_end();
    return value;
  }

 private:
  static JsonValue read(json::Reader& in) {
    JsonValue value;
    switch (const char c = in.peek()) {
      case '{':
        value.kind = JsonValue::Kind::kObject;
        in.begin_object();
        for (std::string_view key; in.next_key(key);) {
          const std::string name(key);  // the value's strings reuse `key`
          value.members[name] = read(in);
        }
        break;
      case '[':
        value.kind = JsonValue::Kind::kArray;
        in.begin_array();
        while (in.next_item()) value.items.push_back(read(in));
        break;
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.text = in.read_string();
        break;
      case 't':
      case 'f':
      case 'n':
        value.kind =
            c == 'n' ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
        value.boolean = c == 't';
        in.skip_value();
        break;
      default:
        value.kind = JsonValue::Kind::kNumber;
        value.number = in.read_number();
    }
    return value;
  }
};

}  // namespace mempart::testing
