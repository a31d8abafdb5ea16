// Bounded mutation test of the JSON reader through the two request grammars
// on it: repro files and serve lines. Seeded generator configs must
// round-trip; every truncation and a fixed number of one-byte mutations of
// each document must parse or fail with an error naming a byte inside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>

#include "check/config.h"
#include "check/differential.h"
#include "check/fuzzer.h"
#include "check/generator.h"
#include "common/errors.h"
#include "common/json.h"
#include "common/random.h"
#include "serve/request.h"

namespace mempart::check {
namespace {

/// `text` extended with control bytes, JSON syntax and multi-byte UTF-8.
std::string hostile(Rng& rng, std::string text) {
  static constexpr std::string_view kPieces[] = {
      "\x01", "\x1f", "\r", "\b", "\"", "\\", "/", "{", "]", "\\u",
      "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80"};
  const auto last = static_cast<Count>(std::size(kPieces)) - 1;
  for (int i = 0; i < 8; ++i) {
    text += kPieces[static_cast<std::size_t>(rng.uniform(0, last))];
  }
  return text;
}

/// The config as one NDJSON serve line, its note doubling as the id.
std::string serve_line(const CheckConfig& config) {
  std::string line = "{\"id\": \"" + json_escape(config.note) + "\", " +
                     config.to_json().substr(1);
  // Escaping keeps line breaks out of strings: the rest are whitespace.
  std::replace(line.begin(), line.end(), '\n', ' ');
  return line;
}

/// `doc` parses, or its error names a byte inside it. A serve line that
/// reads as JSON may still fail Pattern or NdShape validation, whose
/// messages name no byte.
void expect_parses_or_points_inside(const std::string& doc, bool repro) {
  std::string error;
  if (repro) {
    try {
      (void)config_from_repro(doc);
      return;
    } catch (const InvalidArgument& e) {
      error = e.what();
    }
  } else {
    serve::ServeRequest parsed;
    if (serve::parse_request(doc, parsed, &error)) return;
    if (error.rfind("serve request: ", 0) != 0) return;
  }
  const std::size_t at = error.rfind(" at byte ");
  ASSERT_NE(at, std::string::npos) << error;
  EXPECT_LE(std::stoull(error.substr(at + 9)), doc.size()) << error;
}

void expect_serve_round_trip(const CheckConfig& config) {
  const std::string line = serve_line(config);
  serve::ServeRequest parsed;
  std::string error;
  const bool ok = serve::parse_request(line, parsed, &error);
  EXPECT_EQ(parsed.id, config.note);
  try {
    const PartitionRequest want = to_request(config);
    ASSERT_TRUE(ok) << error << '\n' << line;
    EXPECT_EQ(*parsed.request.pattern, *want.pattern);
    EXPECT_EQ(parsed.request.array_shape, want.array_shape);
    EXPECT_EQ(parsed.request.max_banks, want.max_banks);
    EXPECT_EQ(parsed.request.bank_bandwidth, want.bank_bandwidth);
    EXPECT_EQ(parsed.request.strategy, want.strategy);
    EXPECT_EQ(parsed.request.tail, want.tail);
  } catch (const Error& e) {
    EXPECT_FALSE(ok) << line;
    EXPECT_EQ(error, e.what());
  }
}

/// Every truncation of `doc`, then 64 copies with one byte overwritten:
/// half by JSON syntax, half by any byte at all.
void mutate(Rng& rng, const std::string& doc, bool repro) {
  static constexpr std::string_view kSyntax = "{}[]:,\"\\-+0123456789.eEu tfn";
  for (std::size_t length = 0; length < doc.size(); ++length) {
    expect_parses_or_points_inside(doc.substr(0, length), repro);
  }
  for (int m = 0; m < 64; ++m) {
    std::string mutant = doc;
    mutant[static_cast<std::size_t>(
        rng.uniform(0, static_cast<Count>(doc.size()) - 1))] =
        rng.chance(0.5) ? kSyntax[static_cast<std::size_t>(rng.uniform(
                              0, static_cast<Count>(kSyntax.size()) - 1))]
                        : static_cast<char>(rng.uniform(0, 255));
    expect_parses_or_points_inside(mutant, repro);
  }
}

TEST(ReaderMutation, RequestDocumentsRoundTripAndFailClosed) {
  Rng rng(2027);
  for (int i = 0; i < 12; ++i) {
    CheckConfig config = generate_config(rng);
    config.note = hostile(rng, config.note);
    config.seed = static_cast<std::uint64_t>(rng.engine()());
    DiffReport report;
    report.divergences.push_back({"mutation", hostile(rng, "detail")});
    const std::string repro = repro_json(config, report);
    EXPECT_EQ(config_from_repro(repro), config) << repro;
    expect_serve_round_trip(config);
    mutate(rng, repro, true);
    mutate(rng, serve_line(config), false);
  }
}

}  // namespace
}  // namespace mempart::check
