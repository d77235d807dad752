// The bench front end: one reader for the command line and the VFPGA_*
// environment variables, shared by every bench binary.
//
// Each bench names the subset of the shared flags it takes; anything
// else — an unknown flag, a flag that bench does not take, a missing or
// malformed operand — prints `error: unknown argument "<arg>"` and
// exits 2, so a typo can never silently run the default workload.
//
// The environment follows one strict rule: counts are positive integers
// (up to 2^32 - 1), VFPGA_THREADS follows the --threads rule (1..65536),
// seeds are any u64, and the fault rate lies in (0,1).
// A set-but-invalid variable prints `error: VFPGA_X=<value> ...` and
// exits 2. Numbers take C prefixes (`0x10`, `010`) but no sign or
// surrounding whitespace.
//
// Seeds: `--seed N` beats VFPGA_SEED, which beats the bench's default.
// Each bench keeps its own base; per-configuration offsets stay applied
// on top, so distinct configs keep distinct RNG streams.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "vfpga/common/types.hpp"
#include "vfpga/harness/experiment.hpp"

namespace vfpga::bench {

/// The shared flags; a bench passes the ones it takes to parse_args.
enum Flag : unsigned {
  kSmoke = 1u << 0,      ///< --smoke: trimmed workload for CI
  kStatsOnly = 1u << 1,  ///< --stats-only: print the deterministic JSON
  kSoak = 1u << 2,       ///< --soak: sim_speed's million-flow soak
  kSeed = 1u << 3,       ///< --seed N / --seed=N
  kThreads = 1u << 4,    ///< --threads N / --threads=N
};

/// What one bench run was asked for: its flags, then the environment.
struct Args {
  bool smoke = false;
  bool stats_only = false;
  bool soak = false;
  std::optional<u64> seed;  ///< --seed, else VFPGA_SEED
  /// --threads; 0 = not given. Feeds harness::worker_threads, where
  /// VFPGA_THREADS still wins (CI pins determinism oracles with it).
  unsigned threads = 0;
  std::optional<u32> iterations;        ///< VFPGA_ITERATIONS
  std::optional<u32> mq_trials;         ///< VFPGA_MQ_TRIALS
  std::optional<u32> mq_packets;        ///< VFPGA_MQ_PACKETS
  std::optional<u32> campaign_runs;     ///< VFPGA_CAMPAIGN_RUNS
  std::optional<u32> campaign_ops;      ///< VFPGA_CAMPAIGN_OPS
  std::optional<double> campaign_rate;  ///< VFPGA_CAMPAIGN_RATE
};

/// An unsigned integer with an optional C base prefix and nothing else:
/// no sign, no whitespace, no trailing characters, no overflow.
[[nodiscard]] inline std::optional<u64> parse_u64(const char* text) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<u64>(value);
}

/// Parse a `--threads` operand: a positive integer up to 65536. Returns
/// nullopt for everything else — zero, negatives, "4x", "", overflow —
/// so a typo cannot silently become threads=0 ("pick for me").
[[nodiscard]] inline std::optional<unsigned> parse_thread_count(
    const char* text) {
  const std::optional<u64> value = parse_u64(text);
  if (!value.has_value() || *value == 0 || *value > 65'536) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

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

inline std::optional<double> parse_rate(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  const bool numeric = (*text >= '0' && *text <= '9') || *text == '.';
  if (!numeric || *end != '\0' || !(value > 0.0 && value < 1.0)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace detail

/// Parse argv against the `accepted` flags (an OR of Flag values), then
/// read the environment. Exits 2 with a diagnostic on any bad input.
/// A repeated flag takes its last value.
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
    } else if (flag == "--soak" && (accepted & kSoak) != 0) {
      args.soak = true;
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

  // Validated only: harness::worker_threads reads VFPGA_THREADS itself.
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
  args.mq_trials = count("VFPGA_MQ_TRIALS");
  args.mq_packets = count("VFPGA_MQ_PACKETS");
  args.campaign_runs = count("VFPGA_CAMPAIGN_RUNS");
  args.campaign_ops = count("VFPGA_CAMPAIGN_OPS");
  args.campaign_rate = detail::env("VFPGA_CAMPAIGN_RATE", detail::parse_rate,
                                   "is not a probability in (0,1)");
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

}  // namespace vfpga::bench
