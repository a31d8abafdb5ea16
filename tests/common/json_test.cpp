#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/errors.h"

namespace mempart::json {
namespace {

/// What skipping the one value in `text` throws, or "" when it parses.
std::string skip_error(const std::string& text) {
  Reader in(text, "test");
  try {
    in.skip_value();
    in.expect_end();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReader, SkipValueChecksTheWholeGrammar) {
  const std::pair<std::string, std::string> cases[] = {
      {R"( {"a": [1, -0.25e+2, true, false, null, "A\/"], "b": {}} )",
       ""},
      {"[1,]", "expected a value at byte 3"},
      {"[1 2]", "expected ',' or ']' at byte 3"},
      {"[1}", "expected ',' or ']' at byte 2"},
      {R"({"a": 1,})", "expected string at byte 8"},
      {R"({"a" 1})", "expected ':' at byte 5"},
      {"[tru]", "bad literal at byte 1"},
      {"{} {}", "trailing content after document at byte 3"},
      {"+1", "expected a value at byte 0"},
      {"01", "trailing content after document at byte 1"},
      {"1.", "expected a digit after '.' at byte 2"},
      {"1e", "expected an exponent at byte 2"},
      {"1e999", "number out of range at byte 5"},
      {R"("\x")", "bad escape at byte 1"},
      {R"("\u12)", "unterminated string at byte 5"},
  };
  for (const auto& [text, why] : cases) {
    EXPECT_EQ(skip_error(text), why.empty() ? "" : "test: " + why) << text;
  }
}

TEST(JsonReader, IntegersSpanExactlySixtyFourBits) {
  Reader in("[-9223372036854775808, +9223372036854775807, 18446744073709551615, "
            "9223372036854775808]",
            "test");
  in.begin_array();
  ASSERT_TRUE(in.next_item());
  EXPECT_EQ(in.read_int(), std::numeric_limits<std::int64_t>::min());
  ASSERT_TRUE(in.next_item());
  EXPECT_EQ(in.read_int(), std::numeric_limits<std::int64_t>::max());
  ASSERT_TRUE(in.next_item());
  EXPECT_EQ(in.read_uint(), std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(in.next_item());
  EXPECT_THROW((void)in.read_int(), InvalidArgument);
}

TEST(JsonReader, NestingIsBoundedByAConstant) {
  const std::string deepest =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_EQ(skip_error(deepest), "");
  EXPECT_EQ(skip_error('[' + deepest + ']'),
            "test: nesting deeper than 64 levels at byte 64");
}

}  // namespace
}  // namespace mempart::json
