#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace coloc {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = make({"prog", "--count=5"});
  EXPECT_EQ(args.get_int("count", 0), 5);
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = make({"prog", "--name", "hello"});
  EXPECT_EQ(args.get("name", ""), "hello");
}

TEST(Cli, BooleanFlagWithoutValue) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Cli, PositionalArguments) {
  const auto args = make({"prog", "one", "--flag=x", "two"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, HasDetectsPresence) {
  const auto args = make({"prog", "--a=1"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
}

TEST(Cli, DoubleParsing) {
  const auto args = make({"prog", "--ratio=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.25);
}

TEST(Cli, BoolValueForms) {
  EXPECT_TRUE(make({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make({"p", "--x=false"}).get_bool("x", true));
}

TEST(Cli, ProgramName) {
  EXPECT_EQ(make({"prog"}).program(), "prog");
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const auto args = make({"prog", "--a", "--b=2"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_EQ(args.get_int("b", 0), 2);
}

/// The message reject_unknown() throws for `args`, or "" when it accepts.
std::string rejection(const CliArgs& args,
                      const std::vector<std::string_view>& declared) {
  try {
    args.reject_unknown(declared);
  } catch (const invalid_argument_error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, RejectsRemovedRestartFlag) {
  const auto args =
      make({"prog", "--partitions=20", "--no-parallel-restarts"});
  const std::string message =
      rejection(args, {"partitions", "restarts", "jobs"});
  EXPECT_NE(message.find("--no-parallel-restarts"), std::string::npos)
      << message;
  EXPECT_NE(message.find("--restarts"), std::string::npos) << message;
}

TEST(Cli, UnknownFlagSuggestsNearestDeclared) {
  const auto args = make({"prog", "--partition=100"});
  const std::string message =
      rejection(args, {"jobs", "partitions", "seed", "restarts"});
  EXPECT_NE(message.find("--partition "), std::string::npos) << message;
  EXPECT_NE(message.find("--partitions)"), std::string::npos) << message;
}

TEST(Cli, DeclaredFlagsParseInAllThreeForms) {
  const auto args =
      make({"prog", "--partitions=100", "--out", "x.json", "--quick"});
  EXPECT_EQ(rejection(args, {"partitions", "out", "quick", "jobs"}), "");
  EXPECT_EQ(args.get_int("partitions", 0), 100);
  EXPECT_EQ(args.get("out", ""), "x.json");
  EXPECT_TRUE(args.get_bool("quick", false));
  // Positional arguments are not flags and are never rejected.
  EXPECT_EQ(rejection(make({"prog", "input.csv"}), {}), "");
}

}  // namespace
}  // namespace coloc
