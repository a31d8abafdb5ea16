#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/errors.h"

namespace mempart {
namespace {

/// Every test runs against a scrubbed MEMPART_* environment and restores
/// whatever the harness had afterwards, so suites can run in any order.
class EnvParsingTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {
      "MEMPART_THREADS", "MEMPART_CACHE_CAPACITY", "MEMPART_CACHE_SHARDS",
      "MEMPART_FLIGHT_CAPACITY", "MEMPART_SIMD"};

  void SetUp() override {
    for (const char* var : kVars) {
      if (const char* value = std::getenv(var)) saved_[var] = value;
      ::unsetenv(var);
    }
  }
  void TearDown() override {
    for (const char* var : kVars) {
      const auto it = saved_.find(var);
      if (it == saved_.end()) {
        ::unsetenv(var);
      } else {
        ::setenv(var, it->second.c_str(), 1);
      }
    }
  }

 private:
  std::map<std::string, std::string> saved_;
};

TEST_F(EnvParsingTest, UnsetAndEmptySelectTheFallback) {
  EXPECT_EQ(env_int("MEMPART_THREADS", 0, 100), std::nullopt);
  EXPECT_EQ(env_count("MEMPART_THREADS", 7, 0, 100), 7);
  ::setenv("MEMPART_THREADS", "", 1);
  EXPECT_EQ(env_int("MEMPART_THREADS", 0, 100), std::nullopt);
  EXPECT_EQ(env_count("MEMPART_THREADS", 7, 0, 100), 7);
}

TEST_F(EnvParsingTest, ParsesPlainDecimalValues) {
  ::setenv("MEMPART_THREADS", "16", 1);
  EXPECT_EQ(env_int("MEMPART_THREADS", 0, 100), 16);
  EXPECT_EQ(env_count("MEMPART_THREADS", 7, 0, 100), 16);
}

TEST_F(EnvParsingTest, RejectsGarbageNamingTheVariable) {
  ::setenv("MEMPART_THREADS", "abc", 1);
  try {
    (void)env_int("MEMPART_THREADS", 0, 100);
    FAIL() << "garbage value must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("MEMPART_THREADS"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST_F(EnvParsingTest, RejectsTrailingTextAndNonDecimalSpellings) {
  for (const char* bad : {"8x", "8 ", " 8", "0x10", "1e3", "+8", "8.0"}) {
    ::setenv("MEMPART_THREADS", bad, 1);
    EXPECT_THROW((void)env_int("MEMPART_THREADS", 0, 100), InvalidArgument)
        << "value: '" << bad << "'";
  }
}

TEST_F(EnvParsingTest, RejectsNegativeAndOutOfRangeValues) {
  ::setenv("MEMPART_THREADS", "-4", 1);
  EXPECT_THROW((void)env_int("MEMPART_THREADS", 0, 100), InvalidArgument);
  ::setenv("MEMPART_THREADS", "101", 1);
  EXPECT_THROW((void)env_int("MEMPART_THREADS", 0, 100), InvalidArgument);
  // The diagnostic names the documented range.
  try {
    (void)env_int("MEMPART_THREADS", 0, 100);
    FAIL();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("100"), std::string::npos);
  }
}

TEST_F(EnvParsingTest, RejectsSixtyFourBitOverflow) {
  ::setenv("MEMPART_THREADS", "9223372036854775808", 1);  // INT64_MAX + 1
  EXPECT_THROW((void)env_int("MEMPART_THREADS", 0, 100), InvalidArgument);
  ::setenv("MEMPART_THREADS", "99999999999999999999999999", 1);
  EXPECT_THROW((void)env_int("MEMPART_THREADS", 0, 100), InvalidArgument);
}

// One regression per real knob: validate_env() is what `mempart` runs at
// startup, so each variable must surface its own name in the diagnostic
// instead of silently falling back (the pre-fix behaviour).
TEST_F(EnvParsingTest, ValidateEnvChecksEveryIntegerKnob) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"MEMPART_THREADS", "many"},
      {"MEMPART_CACHE_CAPACITY", "-1"},
      {"MEMPART_CACHE_SHARDS", "3.5"},
      {"MEMPART_FLIGHT_CAPACITY", "18446744073709551616"},
  };
  for (const auto& [var, bad] : cases) {
    ::setenv(var, bad, 1);
    try {
      validate_env();
      FAIL() << var << "=" << bad << " must be rejected";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << "diagnostic must name " << var << ", got: " << e.what();
    }
    ::unsetenv(var);
  }
  EXPECT_NO_THROW(validate_env());
}

TEST_F(EnvParsingTest, ValidateEnvChecksTheSimdTierSpelling) {
  ::setenv("MEMPART_SIMD", "avx1024", 1);
  try {
    validate_env();
    FAIL() << "unknown tier must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("MEMPART_SIMD"), std::string::npos);
  }
  for (const char* good : {"scalar", "avx2", "auto"}) {
    ::setenv("MEMPART_SIMD", good, 1);
    EXPECT_NO_THROW(validate_env()) << good;
  }
}

TEST_F(EnvParsingTest, ValidateEnvRejectsTheRetiredSimdTiers) {
  // The 128-bit tiers are gone: their names must fail loudly rather than
  // quietly select a different tier, and the diagnostic lists what remains.
  for (const char* retired : {"sse2", "neon"}) {
    ::setenv("MEMPART_SIMD", retired, 1);
    try {
      validate_env();
      FAIL() << retired << " must be rejected";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MEMPART_SIMD"), std::string::npos) << what;
      EXPECT_NE(what.find("scalar, avx2 or auto"), std::string::npos) << what;
    }
  }
}

TEST_F(EnvParsingTest, RangesAcceptTheirDocumentedBounds) {
  ::setenv("MEMPART_THREADS", "4096", 1);
  EXPECT_EQ(env_count("MEMPART_THREADS", 0, 0, kMaxEnvThreads),
            kMaxEnvThreads);
  ::setenv("MEMPART_THREADS", "4097", 1);
  EXPECT_THROW((void)env_count("MEMPART_THREADS", 0, 0, kMaxEnvThreads),
               InvalidArgument);
}

}  // namespace
}  // namespace mempart
