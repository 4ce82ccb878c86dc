#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace stkde::util {
namespace {

constexpr const char* kVar = "STKDE_ENV_TEST_VALUE";

/// Set kVar for one test and unset it after.
class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  static void set(const char* value) { ::setenv(kVar, value, 1); }

  /// Set kVar to \p value and expect \p read to throw
  /// std::invalid_argument naming both.
  template <class Read>
  static void expect_named_throw(Read read, const std::string& value) {
    set(value.c_str());
    try {
      (void)read();
      ADD_FAILURE() << "'" << value << "' did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(kVar), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  }
};

TEST_F(EnvTest, UnsetReadsTheFallback) {
  ::unsetenv(kVar);
  EXPECT_DOUBLE_EQ(env_double(kVar, 1.5), 1.5);
  EXPECT_EQ(env_long(kVar, 7), 7);
}

TEST_F(EnvTest, WholeValuesParse) {
  set("0.25");
  EXPECT_DOUBLE_EQ(env_double(kVar, 1.0), 0.25);
  set("-12");
  EXPECT_EQ(env_long(kVar, 0), -12);
  EXPECT_DOUBLE_EQ(env_double(kVar, 0.0), -12.0);
}

TEST_F(EnvTest, MalformedValueThrowsNamingVariableAndValue) {
  // A word, trailing garbage, an empty value and a long overflow: each
  // throws instead of reading as the fallback or a prefix.
  expect_named_throw([] { return env_double(kVar, 1.0); }, "abc");
  expect_named_throw([] { return env_double(kVar, 1.0); }, "0.5x");
  expect_named_throw([] { return env_double(kVar, 1.0); }, "");
  expect_named_throw([] { return env_long(kVar, 4); }, "4x");
  expect_named_throw([] { return env_long(kVar, 4); }, "1.5");
  expect_named_throw([] { return env_long(kVar, 4); },
                     "99999999999999999999999");
}

TEST_F(EnvTest, FlagReadsOnlyBooleanWords) {
  ::unsetenv(kVar);
  EXPECT_FALSE(env_flag(kVar));
  for (const char* off : {"", "0", "false", "FALSE", "False"}) {
    set(off);
    EXPECT_FALSE(env_flag(kVar)) << "'" << off << "'";
  }
  for (const char* on : {"1", "true", "TRUE", "True"}) {
    set(on);
    EXPECT_TRUE(env_flag(kVar)) << "'" << on << "'";
  }
}

TEST_F(EnvTest, FlagWithAnyOtherValueThrowsNamingVariableAndValue) {
  // "no" used to read as set, so STKDE_BENCH_FAST=no ran the smoke catalog.
  for (const char* value : {"no", "yes", "off", "2", " 1", "1 ", "truex"})
    expect_named_throw([] { return env_flag(kVar); }, value);
}

}  // namespace
}  // namespace stkde::util
