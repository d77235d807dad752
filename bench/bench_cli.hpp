// The bench front end: one reader for the command line and the VFPGA_*
// environment variables, shared by every experiment of vfpga-bench.
//
// Each experiment names the subset of the shared flags it takes;
// anything else — an unknown flag, a flag that experiment does not take,
// a missing or malformed operand — prints
// `error: unknown argument "<arg>"` and exits 2, so a typo can never
// silently run the default workload.
//
// The environment follows one strict rule: counts are positive integers
// (up to 2^32 - 1), VFPGA_THREADS follows the --threads rule (1..65536),
// and seeds are any u64. A set-but-invalid variable prints
// `error: VFPGA_X=<value> ...` and exits 2. Numbers take C prefixes
// (`0x10`, `010`) but no sign or surrounding whitespace.
//
// Seeds: `--seed N` beats VFPGA_SEED, which beats the experiment's
// default. Each experiment keeps its own base; per-configuration offsets
// stay applied on top, so distinct configs keep distinct RNG streams.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "vfpga/common/types.hpp"
#include "vfpga/harness/experiment.hpp"
#include "vfpga/harness/parallel.hpp"

namespace vfpga::bench {

using harness::parse_thread_count;
using harness::parse_u64;

/// The shared flags; an experiment's registry entry names the ones it
/// takes (experiments.hpp).
enum Flag : unsigned {
  kSmoke = 1u << 0,      ///< --smoke: trimmed workload for CI
  kStatsOnly = 1u << 1,  ///< --stats-only: print only the deterministic JSON
  kSeed = 1u << 2,       ///< --seed N / --seed=N: the base seed
  kThreads = 1u << 3,    ///< --threads N / --threads=N: worker threads
};

/// What one experiment run was asked for: its flags, then the
/// environment.
struct Args {
  bool smoke = false;
  bool stats_only = false;
  std::optional<u64> seed;  ///< --seed, else VFPGA_SEED
  /// --threads; 0 = not given. Feeds harness::worker_threads, where
  /// VFPGA_THREADS still wins (CI pins determinism oracles with it).
  unsigned threads = 0;
  std::optional<u32> iterations;     ///< VFPGA_ITERATIONS
  std::optional<u32> campaign_runs;  ///< VFPGA_CAMPAIGN_RUNS
};

namespace detail {

[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

[[noreturn]] inline void unknown_argument(const std::string& arg) {
  fail("unknown argument \"" + arg + "\"");
}

/// VFPGA_<name> parsed by `parse`, nullopt when unset; exits 2 when set
/// but rejected.
template <typename T>
std::optional<T> env(const char* name, std::optional<T> (*parse)(const char*),
                     const char* rule) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    return std::nullopt;
  }
  const std::optional<T> value = parse(text);
  if (!value.has_value()) {
    fail(std::string(name) + "=" + text + " " + rule);
  }
  return value;
}

inline std::optional<u32> parse_count(const char* text) {
  const std::optional<u64> value = parse_u64(text);
  if (!value.has_value() || *value == 0 || *value > 0xffff'ffffu) {
    return std::nullopt;
  }
  return static_cast<u32>(*value);
}

}  // namespace detail

/// Parse argv against the `accepted` flags (an OR of Flag values), then
/// read the environment. Exits 2 with a diagnostic on any bad input.
/// A repeated flag takes its last value. argv[0], the experiment's name,
/// is not a flag.
inline Args parse_args(int argc, char** argv, unsigned accepted) {
  Args args;
  std::optional<u64> cli_seed;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];  // as given, for the diagnostic
    std::string flag = arg.substr(0, arg.find('='));
    std::string operand;
    if (flag == "--seed" || flag == "--threads") {
      if (flag.size() < arg.size()) {
        operand = arg.substr(flag.size() + 1);
      } else if (i + 1 < argc) {
        operand = argv[++i];
        arg += " " + operand;
      } else {
        detail::unknown_argument(arg);
      }
    } else {
      flag = arg;  // "--smoke=1" is not "--smoke"
    }

    if (flag == "--smoke" && (accepted & kSmoke) != 0) {
      args.smoke = true;
    } else if (flag == "--stats-only" && (accepted & kStatsOnly) != 0) {
      args.stats_only = true;
    } else if (flag == "--seed" && (accepted & kSeed) != 0) {
      cli_seed = parse_u64(operand.c_str());
      if (!cli_seed.has_value()) {
        detail::unknown_argument(arg);
      }
    } else if (flag == "--threads" && (accepted & kThreads) != 0) {
      const std::optional<unsigned> threads =
          parse_thread_count(operand.c_str());
      if (!threads.has_value()) {
        detail::fail("--threads expects a positive integer (1..65536), "
                     "got \"" + operand + "\"");
      }
      args.threads = *threads;
    } else {
      detail::unknown_argument(arg);
    }
  }

  // Validated only: harness::worker_threads reads VFPGA_THREADS itself,
  // by the same parse_thread_count rule, but aborts instead of exiting 2.
  detail::env<unsigned>("VFPGA_THREADS", parse_thread_count,
                        "is not a positive integer (1..65536)");
  args.seed = detail::env<u64>("VFPGA_SEED", parse_u64,
                               "is not an unsigned 64-bit integer");
  if (cli_seed.has_value()) {
    args.seed = cli_seed;
  }
  const auto count = [](const char* name) {
    return detail::env(name, detail::parse_count,
                       "is not a positive integer (1..4294967295)");
  };
  args.iterations = count("VFPGA_ITERATIONS");
  args.campaign_runs = count("VFPGA_CAMPAIGN_RUNS");
  return args;
}

/// The paper benches' (fig3/fig4/fig5/table1) experiment: the paper's
/// defaults with VFPGA_ITERATIONS and the seed applied.
inline harness::ExperimentConfig paper_config(const Args& args) {
  harness::ExperimentConfig config;
  config.iterations = args.iterations.value_or(config.iterations);
  config.seed = args.seed.value_or(config.seed);
  return config;
}

/// The ablation and portability benches' cell experiment: `iterations`
/// measured round trips on the default testbed, without warm-up.
inline harness::ExperimentConfig cell_config(u64 iterations) {
  harness::ExperimentConfig config;
  config.iterations = iterations;
  config.warmup = 0;
  return config;
}

}  // namespace vfpga::bench
