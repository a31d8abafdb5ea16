#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/config.h"
#include "check/differential.h"
#include "check/fuzzer.h"
#include "common/errors.h"

namespace mempart::check {
namespace {

CheckConfig sample_config() {
  CheckConfig config;
  config.offsets = {{-1, 0}, {0, -2}, {3, 4}};
  config.shape = {17, 23};
  config.max_banks = 5;
  config.bank_bandwidth = 2;
  config.strategy = ConstraintStrategy::kSameSize;
  config.tail = TailPolicy::kCompact;
  config.seed = 0xdeadbeef;
  config.note = "hand-written \"sample\"\nwith escapes\\";
  return config;
}

TEST(CheckConfigJson, RoundTripsAllFields) {
  const CheckConfig original = sample_config();
  const CheckConfig parsed = CheckConfig::from_json(original.to_json());
  EXPECT_EQ(parsed, original);
}

TEST(CheckConfigJson, RoundTripsDefaults) {
  CheckConfig config;
  config.offsets = {{0}};
  EXPECT_EQ(CheckConfig::from_json(config.to_json()), config);
}

TEST(CheckConfigJson, RoundTripsDegenerateShapes) {
  CheckConfig config;
  config.offsets = {{0, 0}, {0, 0}};  // duplicates are representable
  config.shape = {8, 0};              // zero extents too
  EXPECT_EQ(CheckConfig::from_json(config.to_json()), config);
}

TEST(CheckConfigJson, RejectsMalformedInput) {
  EXPECT_THROW((void)CheckConfig::from_json(""), InvalidArgument);
  EXPECT_THROW((void)CheckConfig::from_json("[]"), InvalidArgument);
  EXPECT_THROW((void)CheckConfig::from_json("{\"offsets\":"), InvalidArgument);
  EXPECT_THROW((void)CheckConfig::from_json("{\"offsets\": [[0]], \"strategy\": "
                                            "\"banana\"}"),
               InvalidArgument);
  const std::string valid = sample_config().to_json();
  EXPECT_THROW((void)CheckConfig::from_json(valid + "trailing"),
               InvalidArgument);
}

TEST(CheckConfigJson, RejectsALoneSign) {
  // strtoll reads a sign with no digit after it as 0, so each of these
  // once parsed: the first as max_banks 0, the second as a duplicate of
  // offset [0, 0], the third as offset [0, 1]. The diagnostic names the
  // byte where the digit should be.
  for (const std::string doc :
       {R"({"offsets": [[0, 0], [0, 1], [1, 0]], "max_banks": +})",
        R"({"offsets": [[0, 0], [0, -], [1, 0]]})",
        R"({"offsets": [[0, 0], [-, 1], [1, 0]]})"}) {
    const size_t digit = doc.find_first_of("+-") + 1;
    try {
      (void)CheckConfig::from_json(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("expected integer at byte " +
                                           std::to_string(digit)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckConfigJson, EscapesEveryControlByteInTheNote) {
  CheckConfig config = sample_config();
  config.note.clear();
  for (char c = 0x01; c < 0x20; ++c) config.note += c;
  const std::string json = config.to_json();
  // The only raw control bytes left are to_json's own line breaks.
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw byte " << static_cast<int>(c);
  }
  EXPECT_EQ(CheckConfig::from_json(json), config);

  DiffReport report;
  report.divergences.push_back({"kind\r", config.note});
  const std::string doc = repro_json(config, report);
  for (const char c : doc) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw byte " << static_cast<int>(c);
  }
  EXPECT_EQ(config_from_repro(doc), config);
}

TEST(ReproDocument, DecodesEveryStringEscapeInTheNote) {
  const std::string doc =
      R"({"schema": "mempart-check-repro-v1", "config": {"offsets": [[0]], )"
      R"("note": "caf\u00e9 \ud83d\ude00\b\f\r\/"}, "divergences": []})";
  EXPECT_EQ(config_from_repro(doc).note,
            "caf\xC3\xA9 \xF0\x9F\x98\x80\b\f\r/");
}

TEST(ReproDocument, RejectsBadStringsAtTheirByteOffset) {
  for (const auto& [doc, at] : std::vector<std::pair<std::string, std::string>>{
           {R"({"offsets": [[0]], "note": "a\udc00"})", "\\udc00"},
           {R"({"offsets": [[0]], "note": "a\u12x4"})", "x4"},
           {"{\"offsets\": [[0]], \"note\": \"a\x01\"}", "\x01"}}) {
    try {
      (void)config_from_repro(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(" at byte " +
                                           std::to_string(doc.find(at))),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ReproDocument, EmbedsConfigAndDivergences) {
  const CheckConfig config = sample_config();
  DiffReport report;
  report.exhaustive = true;
  report.oracle_positions = 42;
  report.divergences.push_back({"delta-bound", "oracle says 2, solver says 1"});
  const std::string doc = repro_json(config, report);
  EXPECT_NE(doc.find("mempart-check-repro-v1"), std::string::npos);
  EXPECT_NE(doc.find("delta-bound"), std::string::npos);
  EXPECT_EQ(config_from_repro(doc), config);
}

TEST(ReproDocument, AcceptsBareConfigDocument) {
  const CheckConfig config = sample_config();
  EXPECT_EQ(config_from_repro(config.to_json()), config);
}

TEST(ReproDocument, RejectsDocumentWithoutConfig) {
  EXPECT_THROW((void)config_from_repro("{\"schema\": \"x\"}"),
               InvalidArgument);
}

}  // namespace
}  // namespace mempart::check
