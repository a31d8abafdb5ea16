#include "serve/request.h"

#include <gtest/gtest.h>

#include <string>

#include "core/partitioner.h"
#include "pattern/pattern_library.h"

namespace mempart::serve {
namespace {

TEST(ServeRequest, ParsesTheFullGrammar) {
  ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": "c3-17", "tenant": "imaging", )"
      R"("offsets": [[0, 0], [0, 1], [1, 0]], "shape": [640, 480], )"
      R"("max_banks": 4, "bank_bandwidth": 1, "strategy": "same_size", )"
      R"("tail": "compact", "seed": 7, "note": "provenance"})",
      parsed, &error))
      << error;
  EXPECT_EQ(parsed.id, "c3-17");
  EXPECT_EQ(parsed.tenant, "imaging");
  ASSERT_TRUE(parsed.request.pattern.has_value());
  EXPECT_EQ(parsed.request.pattern->size(), 3);
  ASSERT_TRUE(parsed.request.array_shape.has_value());
  EXPECT_EQ(*parsed.request.array_shape, NdShape({640, 480}));
  EXPECT_EQ(parsed.request.max_banks, 4);
  EXPECT_EQ(parsed.request.strategy, ConstraintStrategy::kSameSize);
  EXPECT_EQ(parsed.request.tail, TailPolicy::kCompact);
}

TEST(ServeRequest, MinimalRequestNeedsOnlyOffsets) {
  ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"offsets": [[0], [1], [2]]})", parsed, &error))
      << error;
  EXPECT_TRUE(parsed.id.empty());
  EXPECT_TRUE(parsed.tenant.empty());
  ASSERT_TRUE(parsed.request.pattern.has_value());
  EXPECT_EQ(parsed.request.pattern->size(), 3);
}

TEST(ServeRequest, RejectsUnknownKeysWithAByteDiagnostic) {
  ServeRequest parsed;
  std::string error;
  EXPECT_FALSE(parse_request(R"({"offsets": [[0]], "bogus": 1})", parsed,
                             &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_NE(error.find("byte"), std::string::npos);
}

TEST(ServeRequest, FillsTagsBestEffortOnAMalformedLine) {
  // The id parses before the malformed offsets, so the error response can
  // still be correlated by the client.
  ServeRequest parsed;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"id": "req-9", "tenant": "t0", "offsets": [[0], "oops"]})", parsed,
      &error));
  EXPECT_EQ(parsed.id, "req-9");
  EXPECT_EQ(parsed.tenant, "t0");
  EXPECT_FALSE(error.empty());
}

TEST(ServeRequest, RejectsALoneSign) {
  // strtoll reads a sign with no digit after it as 0; the grammar must
  // reject it at the byte where the digit should be, tags still filled.
  for (const std::string line :
       {R"({"id": "a", "offsets": [[0, 0], [-, 1], [1, 0]]})",
        R"({"id": "a", "offsets": [[0, 0], [0, 1], [1, 0]], "max_banks": +})",
        R"({"id": "a", "offsets": [[0, 0], [0, -], [1, 0]]})"}) {
    ServeRequest parsed;
    std::string error;
    EXPECT_FALSE(parse_request(line, parsed, &error)) << line;
    const size_t digit = line.find_first_of("+-") + 1;
    EXPECT_NE(error.find("expected integer at byte " + std::to_string(digit)),
              std::string::npos)
        << error;
    EXPECT_EQ(parsed.id, "a");
  }
}

TEST(ServeRequest, DecodesEveryStringEscape) {
  ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": "caf\u00e9", "tenant": "\ud83d\ude00\b\f\r\/\n\t\"\\", )"
      R"("offsets": [[0], [1]]})",
      parsed, &error))
      << error;
  EXPECT_EQ(parsed.id, "caf\xC3\xA9");
  // The surrogate pair is one code point, U+1F600, four UTF-8 bytes.
  EXPECT_EQ(parsed.tenant, "\xF0\x9F\x98\x80\b\f\r/\n\t\"\\");
  const std::string ok =
      ok_response(parsed, Partitioner::solve(parsed.request));
  EXPECT_NE(ok.find("\"id\": \"caf\xC3\xA9\""), std::string::npos) << ok;
}

TEST(ServeRequest, RejectsBadStringsAtTheirByteOffset) {
  // Each case names the substring whose first byte the error must point
  // at: the escape of a lone surrogate, a bad hex digit, a raw control
  // byte. The id before it still reaches the error response.
  const struct {
    std::string line;
    std::string at;
    std::string why;
  } cases[] = {
      {R"({"id": "a", "tenant": "x\ud83dy", "offsets": [[0]]})", "\\ud83d",
       "lone surrogate"},
      {R"({"id": "a", "tenant": "x\ude00", "offsets": [[0]]})", "\\ude00",
       "lone surrogate"},
      {R"({"id": "a", "tenant": "\ud83d\u0041", "offsets": [[0]]})",
       "\\ud83d", "lone surrogate"},
      {R"({"id": "a", "tenant": "\u00g9", "offsets": [[0]]})", "g9",
       "bad hex digit in \\u escape"},
      {"{\"id\": \"a\", \"tenant\": \"x\ry\", \"offsets\": [[0]]}", "\r",
       "raw control byte in string"},
  };
  for (const auto& c : cases) {
    ServeRequest parsed;
    std::string error;
    EXPECT_FALSE(parse_request(c.line, parsed, &error)) << c.line;
    EXPECT_NE(error.find(c.why + " at byte " +
                         std::to_string(c.line.find(c.at))),
              std::string::npos)
        << error;
    EXPECT_EQ(parsed.id, "a");
  }
}

TEST(ServeRequest, SeedIsTheBatchSchemasUnsignedInteger) {
  // The same grammar as CheckConfig::from_json, which `mempart batch`
  // reads: any unsigned 64-bit value, and no sign.
  ServeRequest parsed;
  std::string error;
  EXPECT_TRUE(parse_request(
      R"({"offsets": [[0]], "seed": 18446744073709551615, "note": "n"})",
      parsed, &error))
      << error;
  EXPECT_FALSE(parse_request(R"({"offsets": [[0]], "seed": -1})", parsed,
                             &error));
  EXPECT_NE(error.find("expected unsigned integer"), std::string::npos)
      << error;
  EXPECT_FALSE(parse_request(
      R"({"offsets": [[0]], "seed": 18446744073709551616})", parsed, &error));
  EXPECT_NE(error.find("out of 64-bit range"), std::string::npos) << error;
}

TEST(ServeRequest, RejectsSemanticallyInvalidPatterns) {
  ServeRequest parsed;
  std::string error;
  // Mixed ranks pass the JSON layer but fail Pattern validation.
  EXPECT_FALSE(parse_request(R"({"offsets": [[0, 0], [1]]})", parsed, &error));
  EXPECT_FALSE(error.empty());
  // No offsets at all.
  EXPECT_FALSE(parse_request(R"({"shape": [64, 64]})", parsed, &error));
}

TEST(ServeRequest, ResponsesEchoTagsVerbatim) {
  ServeRequest request;
  request.id = "a\"b";  // must round-trip through JSON escaping
  request.tenant = "team/7";
  request.request.pattern = patterns::prewitt3x3();
  const PartitionSolution solution = Partitioner::solve(request.request);

  const std::string ok = ok_response(request, solution);
  EXPECT_NE(ok.find(R"("id": "a\"b")"), std::string::npos) << ok;
  EXPECT_NE(ok.find(R"("tenant": "team/7")"), std::string::npos);
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(ok.find("\"num_banks\": "), std::string::npos);
  EXPECT_EQ(ok.find('\n'), std::string::npos);  // caller owns the newline

  const std::string err = error_response(request, "boom");
  EXPECT_NE(err.find(R"("id": "a\"b")"), std::string::npos);
  EXPECT_NE(err.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(err.find("\"error\": \"boom\""), std::string::npos);
  EXPECT_EQ(err.find("\"shed\""), std::string::npos);

  const std::string shed = shed_response(request, "queue full");
  EXPECT_NE(shed.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(shed.find("\"shed\": true"), std::string::npos);
  EXPECT_NE(shed.find("queue full"), std::string::npos);
}

TEST(ServeRequest, UntaggedResponsesOmitTheTagFields) {
  ServeRequest request;
  request.request.pattern = patterns::roberts2x2();
  const std::string err = error_response(request, "nope");
  EXPECT_EQ(err.find("\"id\""), std::string::npos) << err;
  EXPECT_EQ(err.find("\"tenant\""), std::string::npos);
}

TEST(ServeRequest, OkResponseCarriesTheSolveFields) {
  ServeRequest request;
  request.id = "r1";
  request.request.pattern = patterns::log5x5();
  const PartitionSolution solution = Partitioner::solve(request.request);
  const std::string ok = ok_response(request, solution);
  EXPECT_NE(ok.find("\"num_banks\": 13"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"delta_ii\": "), std::string::npos);
  EXPECT_NE(ok.find("\"fold_factor\": "), std::string::npos);
  EXPECT_NE(ok.find("\"alpha\": ["), std::string::npos);
  EXPECT_NE(ok.find("\"pattern_banks\": ["), std::string::npos);
}

}  // namespace
}  // namespace mempart::serve
