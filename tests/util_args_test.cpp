#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace stkde::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> v(args);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, ParsesSpaceSeparatedValues) {
  const auto a = parse({"prog", "--hs", "2.5", "--name", "dengue"});
  EXPECT_DOUBLE_EQ(a.get("hs", 0.0), 2.5);
  EXPECT_EQ(a.get("name", ""), "dengue");
}

TEST(ArgParser, ParsesEqualsSeparatedValues) {
  const auto a = parse({"prog", "--threads=4", "--scale=0.5"});
  EXPECT_EQ(a.get("threads", 0), 4);
  EXPECT_DOUBLE_EQ(a.get("scale", 0.0), 0.5);
}

TEST(ArgParser, BooleanFlags) {
  const auto a = parse({"prog", "--fast", "--verbose"});
  EXPECT_TRUE(a.has("fast"));
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("slow"));
}

TEST(ArgParser, FallbacksWhenAbsent) {
  const auto a = parse({"prog"});
  EXPECT_EQ(a.get("x", 7), 7);
  EXPECT_DOUBLE_EQ(a.get("y", 1.5), 1.5);
  EXPECT_EQ(a.get("z", "dflt"), "dflt");
}

TEST(ArgParser, PositionalArgumentsKeepOrder) {
  const auto a = parse({"prog", "first", "--k", "v", "second"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "first");
  EXPECT_EQ(a.positional()[1], "second");
}

TEST(ArgParser, FlagFollowedByFlagIsBoolean) {
  const auto a = parse({"prog", "--a", "--b", "val"});
  EXPECT_TRUE(a.has("a"));
  EXPECT_EQ(a.get("a", "x"), "");
  EXPECT_EQ(a.get("b", ""), "val");
}

TEST(ArgParser, MalformedNumberThrows) {
  // Trailing garbage, a value past the requested type's range, a word, and
  // a double overflow: each throws, and the message names flag and value.
  const auto a = parse({"prog", "--n", "12abc", "--k", "3000000000", "--x",
                        "abc", "--d", "1e400"});
  auto expect_named_throw = [](auto get, const std::string& flag,
                               const std::string& value) {
    try {
      (void)get();
      ADD_FAILURE() << flag << " " << value << " did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  };
  expect_named_throw([&] { return a.get("n", 0L); }, "n", "12abc");
  expect_named_throw([&] { return a.get("k", 0); }, "k", "3000000000");
  expect_named_throw([&] { return a.get("x", 0.0); }, "x", "abc");
  expect_named_throw([&] { return a.get("d", 0.0); }, "d", "1e400");
}

TEST(ArgParser, ProgramName) {
  const auto a = parse({"myprog"});
  EXPECT_EQ(a.program(), "myprog");
}

}  // namespace
}  // namespace stkde::util
