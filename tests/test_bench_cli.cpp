// The bench front end (bench/bench_cli.hpp): flag parsing against each
// experiment's accepted set, the strict environment rule, and the seed
// precedence --seed > VFPGA_SEED > the experiment's default; and the
// registry behind vfpga-bench (bench/experiments.hpp), entry by entry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "experiments.hpp"

namespace vfpga::bench {
namespace {

constexpr unsigned kAllFlags = kSmoke | kStatsOnly | kSeed | kThreads;

/// parse_args over a literal command line (argv[0] included).
Args parse(std::vector<const char*> argv, unsigned accepted = kAllFlags) {
  return parse_args(static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()), accepted);
}

/// Clears every variable the front end reads before and after each
/// test, so neither the operator's shell nor another test leaks in.
class BenchCli : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }

 private:
  static void clear() {
    for (const char* name : {"VFPGA_ITERATIONS", "VFPGA_SEED",
                             "VFPGA_CAMPAIGN_RUNS", "VFPGA_THREADS"}) {
      ::unsetenv(name);
    }
  }
};

class BenchCliDeathTest : public BenchCli {};

TEST_F(BenchCli, ParseThreadCountAcceptsPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("65536"), 65'536u);
  EXPECT_EQ(parse_thread_count("0x10"), 16u);  // C base prefixes
}

TEST_F(BenchCli, ParseThreadCountRejectsZeroNegativeAndGarbage) {
  EXPECT_FALSE(parse_thread_count("0").has_value());
  EXPECT_FALSE(parse_thread_count("-1").has_value());
  EXPECT_FALSE(parse_thread_count("-4").has_value());
  EXPECT_FALSE(parse_thread_count("4x").has_value());
  EXPECT_FALSE(parse_thread_count("x4").has_value());
  EXPECT_FALSE(parse_thread_count("").has_value());
  EXPECT_FALSE(parse_thread_count(nullptr).has_value());
  EXPECT_FALSE(parse_thread_count("4.5").has_value());
  EXPECT_FALSE(parse_thread_count(" 4 ").has_value());
  EXPECT_FALSE(parse_thread_count("65537").has_value());  // above the cap
  EXPECT_FALSE(parse_thread_count("99999999999999999999").has_value());
}

TEST_F(BenchCli, CliThreadsReturnsZeroWhenAbsentAndLastFlagWins) {
  EXPECT_EQ(parse({"bench"}).threads, 0u);
  EXPECT_EQ(parse({"bench", "--threads=8"}).threads, 8u);
  EXPECT_EQ(parse({"bench", "--threads", "3"}).threads, 3u);
  EXPECT_EQ(parse({"bench", "--threads", "3", "--threads=5"}).threads, 5u);
}

TEST_F(BenchCli, AcceptedFlagsAreSet) {
  const Args none = parse({"bench"});
  EXPECT_FALSE(none.smoke || none.stats_only);
  const Args all = parse({"bench", "--smoke", "--stats-only"});
  EXPECT_TRUE(all.smoke && all.stats_only);
}

TEST_F(BenchCli, SeedTakesPrefixedOperandsAndTheFullU64Range) {
  EXPECT_EQ(parse({"bench", "--seed=0x10"}).seed, 16u);
  EXPECT_EQ(parse({"bench", "--seed", "0"}).seed, 0u);
  EXPECT_EQ(parse({"bench", "--seed=18446744073709551615"}).seed,
            18'446'744'073'709'551'615u);
}

TEST_F(BenchCli, SeedFlagBeatsEnvironmentWhichBeatsDefault) {
  EXPECT_FALSE(parse({"bench"}).seed.has_value());
  EXPECT_EQ(paper_config(parse({"bench"})).seed, 2024u);
  ::setenv("VFPGA_SEED", "5", 1);
  EXPECT_EQ(parse({"bench"}).seed, 5u);
  EXPECT_EQ(parse({"bench", "--seed", "9"}).seed, 9u);
  EXPECT_EQ(paper_config(parse({"bench", "--seed=9"})).seed, 9u);
}

TEST_F(BenchCli, EnvironmentCountsAreRead) {
  ::setenv("VFPGA_CAMPAIGN_RUNS", "3", 1);
  const Args args = parse({"bench"});
  EXPECT_EQ(args.campaign_runs, 3u);
  EXPECT_FALSE(args.iterations.has_value());
}

TEST_F(BenchCli, ValidThreadsEnvironmentPassesAndLeavesCliThreadsUnset) {
  ::setenv("VFPGA_THREADS", "4", 1);
  EXPECT_EQ(parse({"bench"}).threads, 0u);  // worker_threads reads it
  EXPECT_EQ(parse({"bench", "--threads=2"}).threads, 2u);
}

// The paper benches' VFPGA_ITERATIONS / VFPGA_SEED overrides.
TEST(ExperimentConfig, EnvOverrides) {
  ::setenv("VFPGA_ITERATIONS", "1234", 1);
  ::setenv("VFPGA_SEED", "77", 1);
  const harness::ExperimentConfig config = paper_config(parse({"bench"}, 0));
  EXPECT_EQ(config.iterations, 1234u);
  EXPECT_EQ(config.seed, 77u);
  ::unsetenv("VFPGA_ITERATIONS");
  ::unsetenv("VFPGA_SEED");
}

TEST_F(BenchCliDeathTest, CliThreadsExitsWithDiagnosticOnBadOperand) {
  EXPECT_EXIT(parse({"bench", "--threads", "0"}),
              ::testing::ExitedWithCode(2), "positive integer");
  EXPECT_EXIT(parse({"bench", "--threads=4x"}), ::testing::ExitedWithCode(2),
              "got \"4x\"");
}

TEST_F(BenchCliDeathTest, RejectsNonNumericSeed) {
  EXPECT_EXIT(parse({"bench", "--seed", "abc"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--seed abc\"");
  EXPECT_EXIT(parse({"bench", "--seed=-1"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--seed=-1\"");
}

TEST_F(BenchCliDeathTest, RejectsTrailingSeedWithoutOperand) {
  EXPECT_EXIT(parse({"bench", "--seed"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--seed\"");
}

TEST_F(BenchCliDeathTest, RejectsUnknownFlag) {
  EXPECT_EXIT(parse({"bench", "--stat-only"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--stat-only\"");
  EXPECT_EXIT(parse({"bench", "--smoke=1"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--smoke=1\"");
  EXPECT_EXIT(parse({"bench", "--soak"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--soak\"");
}

TEST_F(BenchCliDeathTest, RejectsFlagTheBenchDoesNotTake) {
  EXPECT_EXIT(parse({"bench", "--smoke"}, kSeed), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--smoke\"");
  EXPECT_EXIT(parse({"bench", "--seed", "1"}, 0),
              ::testing::ExitedWithCode(2),
              "error: unknown argument \"--seed 1\"");
}

TEST_F(BenchCliDeathTest, RejectsNonNumericIterations) {
  ::setenv("VFPGA_ITERATIONS", "abc", 1);
  EXPECT_EXIT(parse({"bench"}), ::testing::ExitedWithCode(2),
              "error: VFPGA_ITERATIONS=abc is not a positive integer");
}

TEST_F(BenchCliDeathTest, RejectsZeroTrials) {
  ::setenv("VFPGA_CAMPAIGN_RUNS", "0", 1);
  EXPECT_EXIT(parse({"bench"}), ::testing::ExitedWithCode(2),
              "error: VFPGA_CAMPAIGN_RUNS=0 is not a positive integer");
}

TEST_F(BenchCliDeathTest, RejectsMalformedThreadsEnvironment) {
  for (const char* value : {"4x", "abc", "0", "-2"}) {
    ::setenv("VFPGA_THREADS", value, 1);
    EXPECT_EXIT(parse({"bench"}, 0), ::testing::ExitedWithCode(2),
                std::string("error: VFPGA_THREADS=") + value +
                    " is not a positive integer")
        << value;
  }
}

TEST_F(BenchCliDeathTest, RejectsMalformedEnvironmentSeed) {
  ::setenv("VFPGA_SEED", "-5", 1);
  EXPECT_EXIT(parse({"bench", "--seed", "1"}), ::testing::ExitedWithCode(2),
              "error: VFPGA_SEED=-5 is not an unsigned 64-bit integer");
}

/// vfpga-bench over a literal command line (the program name added).
void run(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "vfpga-bench");
  run_experiment(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

/// <entry>.RejectsUnknownArguments, registered below for every registry
/// entry: the entry exits 2 on a flag no entry takes, before running.
struct RejectsUnknownArguments : BenchCli {
  explicit RejectsUnknownArguments(const char* entry) : name(entry) {}
  void TestBody() override {
    EXPECT_EXIT(run({name, "--no-such-flag"}), ::testing::ExitedWithCode(2),
                "error: unknown argument \"--no-such-flag\"");
  }
  const char* name;
};

[[maybe_unused]] const bool kEntryTestsRegistered = [] {
  for (const Experiment& experiment : kExperiments) {
    ::testing::RegisterTest(experiment.name, "RejectsUnknownArguments",
                            nullptr, nullptr, __FILE__, __LINE__,
                            [name = experiment.name] {
                              return new RejectsUnknownArguments(name);
                            });
  }
  return true;
}();

TEST_F(BenchCliDeathTest, RejectsUnknownExperimentAndListsEveryName) {
  std::string listing = "error: unknown experiment \"fig6\"";
  for (const Experiment& experiment : kExperiments) {
    listing += std::string("\n") + experiment.name;
  }
  EXPECT_EXIT(run({"fig6"}), ::testing::ExitedWithCode(2), listing);
  EXPECT_EXIT(run({}), ::testing::ExitedWithCode(2),
              "error: unknown experiment \"\"\nfig3\n");
}

TEST_F(BenchCliDeathTest, EntryRejectsAFlagItDoesNotTake) {
  EXPECT_EXIT(run({"fig3", "--smoke"}), ::testing::ExitedWithCode(2),
              "error: unknown argument \"--smoke\"");
}

}  // namespace
}  // namespace vfpga::bench
