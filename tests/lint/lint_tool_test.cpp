// End-to-end tests for mempart_lint: spawn the real binary over the fixture
// corpus and pin exact finding counts, rules, and exit codes. The fixtures
// under tests/lint/fixtures/ each carry a tally comment; a count drifting
// here means either a fixture edit or a linter behavior change — both must
// be deliberate.
//
// Paths come in as compile definitions (see tests/CMakeLists.txt):
//   MEMPART_LINT_BIN       absolute path to the mempart_lint executable
//   MEMPART_LINT_FIXTURES  absolute path to tests/lint/fixtures
//   MEMPART_LINT_SRC_DIR   absolute path to the repo's src/ tree
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "json.h"  // tools/analyze JSON parser, reused for report round-trips

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_lint(const std::string& args) {
  const std::string cmd =
      std::string(MEMPART_LINT_BIN) + " " + args + " 2>&1";
  RunResult result;
#if defined(_WIN32)
  FILE* pipe = _popen(cmd.c_str(), "r");
#else
  FILE* pipe = popen(cmd.c_str(), "r");
#endif
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) !=
         nullptr) {
    result.output += buffer.data();
  }
#if defined(_WIN32)
  const int status = _pclose(pipe);
  result.exit_code = status;
#else
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
  return result;
}

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

std::string fixture(const std::string& rel) {
  return std::string(MEMPART_LINT_FIXTURES) + "/" + rel;
}

TEST(LintTool, ViolationsFixtureFindsExactlyFiveRawArith) {
  const RunResult r = run_lint(fixture("core/violations.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[raw-arith]"), 5) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[mutex-guard]"), 0) << r.output;
}

TEST(LintTool, CleanFixturePasses) {
  const RunResult r = run_lint(fixture("core/clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintTool, PragmasSuppressButDemandReasons) {
  const RunResult r = run_lint(fixture("core/suppressed.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Two good pragmas suppress their sites; the reason-less pragma does not
  // suppress (1 raw-arith) and is itself flagged, as is the unknown rule.
  EXPECT_EQ(count_occurrences(r.output, "[raw-arith]"), 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[bad-pragma]"), 2) << r.output;
}

TEST(LintTool, StalePragmasAreFlagged) {
  const RunResult r = run_lint(fixture("core/stale.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The live pragma suppresses its modulo and is not flagged; the two dead
  // allowances (trailing and line-above forms) are.
  EXPECT_EQ(count_occurrences(r.output, "[stale-pragma]"), 2) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[raw-arith]"), 0) << r.output;
  EXPECT_NE(r.output.find("suppresses nothing"), std::string::npos)
      << r.output;
}

TEST(LintTool, FindingsCarryColumns) {
  // file:line:col: — the stale trailing pragma sits at column 37 of line 17
  // (the comment start), pinning that columns are real and 1-based.
  const RunResult r = run_lint(fixture("core/stale.cpp"));
  EXPECT_NE(r.output.find("stale.cpp:17:37: [stale-pragma]"),
            std::string::npos)
      << r.output;
}

TEST(LintTool, RawArithScopedToSolverDirs) {
  // The guard fixtures live outside any core/ or pattern/ segment, so their
  // arithmetic-free content aside, raw-arith must not even be consulted.
  const RunResult r = run_lint(fixture("guard/unguarded.h"));
  EXPECT_EQ(count_occurrences(r.output, "[raw-arith]"), 0) << r.output;
}

TEST(LintTool, UnguardedMutexesAreFlagged) {
  const RunResult r = run_lint(fixture("guard/unguarded.h"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[mutex-guard]"), 2) << r.output;
}

TEST(LintTool, GuardedMutexesPass) {
  const RunResult r = run_lint(fixture("guard/guarded.h"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintTool, LeakedIntrinsicsAreFlagged) {
  const RunResult r = run_lint(fixture("simd/leaky.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // 2 intrinsic-header includes + 2 intrinsic-identifier lines (several
  // intrinsics on one line collapse to a single finding) + 1 I64x4 use
  // outside an _avx2.cpp unit.
  EXPECT_EQ(count_occurrences(r.output, "[simd-guard]"), 5) << r.output;
  EXPECT_NE(r.output.find("immintrin.h"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("I64x4"), std::string::npos) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[raw-arith]"), 0) << r.output;
}

TEST(LintTool, WideLaneWrapperIsAllowedInAvx2Units) {
  const RunResult r = run_lint(fixture("simd/kernels_avx2.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintTool, SuppressedIntrinsicsPass) {
  const RunResult r = run_lint(fixture("simd/guarded.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(count_occurrences(r.output, "[simd-guard]"), 0) << r.output;
}

TEST(LintTool, SimdAbstractionHeaderIsExempt) {
  const RunResult r = run_lint(fixture("simd/common/simd.h"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintTool, WholeCorpusCountIsPinned) {
  const RunResult r = run_lint(std::string(MEMPART_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("17 finding(s)"), std::string::npos) << r.output;
}

TEST(LintTool, RealSourceTreeIsClean) {
  // The gate the CI job enforces, pinned here too so a local `ctest` run
  // catches a new violation before it reaches CI.
  const RunResult r = run_lint(std::string(MEMPART_LINT_SRC_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(LintTool, MissingPathIsAUsageError) {
  const RunResult r = run_lint(fixture("does/not/exist.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(LintTool, NoArgumentsIsAUsageError) {
  const RunResult r = run_lint("");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(LintTool, ListRulesExitsZero) {
  const RunResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("raw-arith"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("mutex-guard"), std::string::npos) << r.output;
  // Span coverage is mempart_analyze's cross-TU span-coverage rule.
  EXPECT_EQ(r.output.find("obs-span"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("simd-guard"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("stale-pragma"), std::string::npos) << r.output;
}

TEST(LintTool, ReportWritesJson) {
  const std::string report =
      ::testing::TempDir() + "/mempart_lint_report.json";
  const RunResult r =
      run_lint("--report " + report + " " + fixture("core/violations.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  FILE* f = std::fopen(report.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  std::array<char, 4096> buffer{};
  size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), f)) > 0) {
    contents.append(buffer.data(), n);
  }
  std::fclose(f);
  std::remove(report.c_str());
  EXPECT_NE(contents.find("\"rule\": \"raw-arith\""), std::string::npos)
      << contents;
  EXPECT_EQ(count_occurrences(contents, "\"line\":"), 5) << contents;
  EXPECT_EQ(count_occurrences(contents, "\"col\":"), 5) << contents;
}

TEST(LintTool, ReportRoundTripsThroughJsonParser) {
  // Schema pin: the report over the whole corpus — messages carry em dashes,
  // quotes and apostrophes — must parse as strict JSON into an array of
  // {file, line, col, rule, message} objects with the right types.
  const std::string report =
      ::testing::TempDir() + "/mempart_lint_roundtrip.json";
  const RunResult r =
      run_lint("--report " + report + " " + std::string(MEMPART_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::string contents;
  {
    FILE* f = std::fopen(report.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::array<char, 4096> buffer{};
    size_t n = 0;
    while ((n = std::fread(buffer.data(), 1, buffer.size(), f)) > 0) {
      contents.append(buffer.data(), n);
    }
    std::fclose(f);
    std::remove(report.c_str());
  }
  std::string error;
  const auto doc = mempart::analyze::Json::parse(contents, &error);
  ASSERT_TRUE(doc.is_array()) << error << "\n" << contents;
  ASSERT_EQ(doc.size(), 17u) << contents;
  for (size_t i = 0; i < doc.size(); ++i) {
    const auto& f = doc.at(i);
    ASSERT_TRUE(f.is_object());
    EXPECT_TRUE(f["file"].is_string());
    EXPECT_TRUE(f["rule"].is_string());
    EXPECT_TRUE(f["message"].is_string());
    EXPECT_TRUE(f["line"].is_number());
    EXPECT_TRUE(f["col"].is_number());
    EXPECT_GE(f["line"].as_int(0), 1);
    EXPECT_GE(f["col"].as_int(-1), 0);
    EXPECT_FALSE(f["message"].as_string().empty());
  }
}

}  // namespace
