// The bench binaries' common command line (bench/bench_common.hpp):
// every count is a whole number >= 1, on the command line and in
// PINSIM_JOBS / PINSIM_REPS, and anything else exits 2 with a message
// naming the flag or variable instead of running some other protocol.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace pinsim::bench {
namespace {

BenchOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

void reject(std::vector<std::string> args) {
  args.insert(args.begin(), "table2_instances");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  reject_arguments(static_cast<int>(argv.size()), argv.data());
}

class BenchCliTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_env(); }
  void TearDown() override { clear_env(); }
  static void clear_env() {
    unsetenv("PINSIM_JOBS");
    unsetenv("PINSIM_REPS");
  }
};

using BenchCliDeathTest = BenchCliTest;

TEST_F(BenchCliTest, DefaultsKeepThePaperProtocol) {
  const BenchOptions options = parse({});
  EXPECT_EQ(options.jobs, 1);
  EXPECT_EQ(options.reps_override, 0);
  EXPECT_TRUE(options.json_path.empty());
  EXPECT_FALSE(options.engine_stats);
}

TEST_F(BenchCliTest, ParsesEveryCommonFlag) {
  const BenchOptions options =
      parse({"--jobs", "4", "--reps", "3", "--json", "out.json", "--stats"});
  EXPECT_EQ(options.jobs, 4);
  EXPECT_EQ(options.reps_override, 3);
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_TRUE(options.engine_stats);
  EXPECT_EQ(parse({"-j", "2"}).jobs, 2);
}

TEST_F(BenchCliTest, EnvironmentSetsDefaultsAndFlagsWin) {
  setenv("PINSIM_JOBS", "3", 1);
  setenv("PINSIM_REPS", "5", 1);
  EXPECT_EQ(parse({}).jobs, 3);
  EXPECT_EQ(parse({}).reps_override, 5);
  EXPECT_EQ(parse({"--jobs", "2"}).jobs, 2);
  EXPECT_EQ(parse({"--reps", "7"}).reps_override, 7);
  EXPECT_EQ(repetitions_or(20), 5);
  unsetenv("PINSIM_REPS");
  EXPECT_EQ(repetitions_or(20), 20);
}

TEST_F(BenchCliDeathTest, RepsZeroFails) {
  EXPECT_EXIT(parse({"--reps", "0"}), ::testing::ExitedWithCode(2),
              "--reps must be >= 1 \\(got '0'\\)");
}

TEST_F(BenchCliDeathTest, RepsNotANumberFails) {
  EXPECT_EXIT(parse({"--reps", "abc"}), ::testing::ExitedWithCode(2),
              "--reps must be >= 1 \\(got 'abc'\\)");
}

TEST_F(BenchCliDeathTest, JobsTrailingCharactersFail) {
  EXPECT_EXIT(parse({"--jobs", "2x"}), ::testing::ExitedWithCode(2),
              "--jobs must be >= 1 \\(got '2x'\\)");
}

TEST_F(BenchCliDeathTest, JobsSignedOrOutOfRangeFails) {
  EXPECT_EXIT(parse({"--jobs", "-1"}), ::testing::ExitedWithCode(2),
              "--jobs must be >= 1");
  EXPECT_EXIT(parse({"-j", "+2"}), ::testing::ExitedWithCode(2),
              "--jobs must be >= 1");
  EXPECT_EXIT(parse({"--jobs", "99999999999"}), ::testing::ExitedWithCode(2),
              "--jobs must be >= 1");
  EXPECT_EXIT(parse({"--jobs", ""}), ::testing::ExitedWithCode(2),
              "--jobs must be >= 1");
}

TEST_F(BenchCliDeathTest, MissingValueFails) {
  EXPECT_EXIT(parse({"--reps"}), ::testing::ExitedWithCode(2),
              "missing value for --reps");
}

TEST_F(BenchCliDeathTest, BadEnvironmentNamesTheVariable) {
  EXPECT_EXIT(
      {
        setenv("PINSIM_JOBS", "0", 1);
        parse({});
      },
      ::testing::ExitedWithCode(2), "PINSIM_JOBS must be >= 1 \\(got '0'\\)");
  EXPECT_EXIT(
      {
        setenv("PINSIM_REPS", "2x", 1);
        parse({"--jobs", "2"});
      },
      ::testing::ExitedWithCode(2), "PINSIM_REPS must be >= 1 \\(got '2x'\\)");
  EXPECT_EXIT(
      {
        setenv("PINSIM_REPS", "abc", 1);
        repetitions_or(3);
      },
      ::testing::ExitedWithCode(2), "PINSIM_REPS must be >= 1");
}

// No bench takes --shards, scenario_cluster included.
TEST_F(BenchCliDeathTest, ShardsIsNotACommonFlag) {
  EXPECT_EXIT(parse({"--shards", "2"}), ::testing::ExitedWithCode(2),
              "unknown argument: --shards");
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown argument: --bogus");
}

TEST_F(BenchCliDeathTest, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST_F(BenchCliDeathTest, NoArgumentBenchesRejectEveryArgument) {
  reject({});  // no arguments: returns
  EXPECT_EXIT(reject({"--jobs", "4"}), ::testing::ExitedWithCode(2),
              "unknown argument: --jobs\nusage: table2_instances");
  EXPECT_EXIT(reject({"--help"}), ::testing::ExitedWithCode(2), "usage:");
}

}  // namespace
}  // namespace pinsim::bench
