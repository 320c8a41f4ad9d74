#include "support/options.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace beepmis::support {
namespace {

Options make_options() {
  Options opts;
  opts.add("n", "100", "number of nodes");
  opts.add("p", "0.5", "edge probability");
  opts.add("verbose", "false", "verbose output");
  opts.add("label", "default", "run label");
  return opts;
}

bool parse(Options& opts, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return opts.parse(static_cast<int>(args.size()), args.data());
}

TEST(Options, DefaultsWhenUnset) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {}));
  EXPECT_EQ(opts.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(opts.get_double("p"), 0.5);
  EXPECT_FALSE(opts.get_bool("verbose"));
  EXPECT_EQ(opts.get("label"), "default");
}

TEST(Options, EqualsSyntax) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"--n=250", "--p=0.25"}));
  EXPECT_EQ(opts.get_int("n"), 250);
  EXPECT_DOUBLE_EQ(opts.get_double("p"), 0.25);
}

TEST(Options, SpaceSyntax) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"--n", "42"}));
  EXPECT_EQ(opts.get_int("n"), 42);
}

TEST(Options, BooleanFlagWithoutValue) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"--verbose"}));
  EXPECT_TRUE(opts.get_bool("verbose"));
}

TEST(Options, NoPrefixDisablesBoolean) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"--verbose", "--no-verbose"}));
  EXPECT_FALSE(opts.get_bool("verbose"));
}

TEST(Options, UnknownFlagFails) {
  Options opts = make_options();
  EXPECT_FALSE(parse(opts, {"--bogus=1"}));
  EXPECT_NE(opts.error().find("bogus"), std::string::npos);
}

TEST(Options, HelpRequested) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"--help"}));
  EXPECT_TRUE(opts.help_requested());
}

TEST(Options, PositionalArgumentsCollected) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {"file1", "--n=5", "file2"}));
  EXPECT_EQ(opts.positional(), (std::vector<std::string>{"file1", "file2"}));
}

TEST(Options, UsageListsFlags) {
  const Options opts = make_options();
  const std::string usage = opts.usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("edge probability"), std::string::npos);
}

TEST(Options, GetUnregisteredThrows) {
  Options opts = make_options();
  ASSERT_TRUE(parse(opts, {}));
  EXPECT_THROW(opts.get("missing"), std::invalid_argument);
}

TEST(Options, U64RoundTrip) {
  Options opts;
  opts.add("seed", "18446744073709551615", "max u64");
  ASSERT_TRUE(parse(opts, {}));
  EXPECT_EQ(opts.get_u64("seed"), 18446744073709551615ULL);
}

/// Parses `--name=value` into a fresh Options that registers `name`.
Options with_value(const std::string& name, const std::string& value) {
  Options opts;
  opts.add(name, "0", "flag under test");
  const std::string arg = "--" + name + "=" + value;
  EXPECT_TRUE(parse(opts, {arg.c_str()}));
  return opts;
}

/// Runs `get` and expects std::invalid_argument whose message names `--name`.
template <typename Get>
void expect_rejected(const std::string& name, const std::string& value, Get&& get) {
  const Options opts = with_value(name, value);
  try {
    (void)get(opts);
    ADD_FAILURE() << "--" << name << " accepted '" << value << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--" + name + ":"), std::string::npos)
        << "message must name the flag: " << e.what();
  }
}

TEST(Options, StrictGettersRejectMalformedValuesNamingTheFlag) {
  for (const char* bad : {"-5", "12abc", "1e3", "99999999999999999999", "nan"}) {
    expect_rejected("n", bad, [](const Options& o) { return o.get_int("n"); });
    expect_rejected("seed", bad, [](const Options& o) { return o.get_u64("seed"); });
  }
  for (const char* bad : {"-5", "12abc", "nan"}) {
    expect_rejected("p", bad, [](const Options& o) { return o.get_double("p"); });
  }
  // 1e3 and 20-digit numbers are fine reals.
  EXPECT_DOUBLE_EQ(with_value("p", "1e3").get_double("p"), 1000.0);
  EXPECT_DOUBLE_EQ(with_value("p", "99999999999999999999").get_double("p"), 1e20);
}

TEST(Options, U64RespectsItsMax) {
  EXPECT_EQ(with_value("shards", "4294967295").get_u64("shards", UINT32_MAX), UINT32_MAX);
  expect_rejected("shards", "4294967296",
                  [](const Options& o) { return o.get_u64("shards", UINT32_MAX); });
  expect_rejected("n", "9223372036854775808", [](const Options& o) { return o.get_int("n"); });
}

TEST(SweepFlags, SecondsFlagAcceptsPlainNonNegativeNumbers) {
  EXPECT_DOUBLE_EQ(with_value("budget", "0").get_double("budget"), 0.0);
  EXPECT_DOUBLE_EQ(with_value("budget", "2.5").get_double("budget"), 2.5);
  EXPECT_DOUBLE_EQ(with_value("budget", "1e-3").get_double("budget"), 1e-3);
  EXPECT_DOUBLE_EQ(with_value("p", "0.25").get_double("p"), 0.25);
}

TEST(SweepFlags, SecondsFlagRejectsGarbageNamingTheFlag) {
  for (const char* bad : {"", "-1", "-0.5", "abc", "1.5s", "nan", "inf", "1..2"}) {
    expect_rejected("trial-timeout", bad,
                    [](const Options& o) { return o.get_double("trial-timeout"); });
  }
}

TEST(SweepFlags, CountFlagAcceptsPlainDecimals) {
  EXPECT_EQ(with_value("max-retries", "0").get_u64("max-retries"), 0u);
  EXPECT_EQ(with_value("max-retries", "17").get_u64("max-retries"), 17u);
  // The full uint64_t range, for seed flags.
  EXPECT_EQ(with_value("seed", "18446744073709551615").get_u64("seed"), UINT64_MAX);
}

TEST(SweepFlags, CountFlagRejectsGarbageNamingTheFlag) {
  for (const char* bad :
       {"", "-3", "1e3", "7x", "3.0", " 4", "18446744073709551616", "99999999999999999999",
        "000000000000000000001"}) {
    expect_rejected("max-retries", bad,
                    [](const Options& o) { return o.get_u64("max-retries"); });
  }
}

}  // namespace
}  // namespace beepmis::support
