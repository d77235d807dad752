// The experiment registry behind `vfpga-bench <name> [flags]`: every
// paper artifact, ablation and extension sweep is one entry. Its name is
// also its golden's (`Golden.<name>`) and its EXPERIMENTS.md heading's.
#pragma once

#include <string>
#include <string_view>

#include "bench_cli.hpp"

namespace vfpga::bench {

// The entries: the paper's four in paper_figures.cpp, the rest in a
// source file each, named after them.
int fig3(const Args& args);
int fig4(const Args& args);
int fig5(const Args& args);
int table1(const Args& args);
int ablation_c2h_notification(const Args& args);
int ablation_descriptor_policy(const Args& args);
int ablation_payload_sweep(const Args& args);
int ablation_pipelining(const Args& args);
int ablation_ring_format(const Args& args);
int portability_sweep(const Args& args);
int fault_campaign(const Args& args);
int busy_poll_modes(const Args& args);
int blk_iops(const Args& args);
int sim_speed(const Args& args);

struct Experiment {
  const char* name;
  unsigned flags;           ///< the Flag values parse_args accepts for it
  int (*run)(const Args&);  ///< returns the process's exit status
};

inline constexpr unsigned kSweepFlags = kSmoke | kStatsOnly | kSeed | kThreads;

inline constexpr Experiment kExperiments[] = {
    {"fig3", 0, fig3},
    {"fig4", 0, fig4},
    {"fig5", 0, fig5},
    {"table1", 0, table1},
    {"ablation_c2h_notification", kSeed, ablation_c2h_notification},
    {"ablation_descriptor_policy", kSeed, ablation_descriptor_policy},
    {"ablation_payload_sweep", kSeed, ablation_payload_sweep},
    {"ablation_pipelining", kSeed, ablation_pipelining},
    {"ablation_ring_format", kSeed, ablation_ring_format},
    {"portability_sweep", 0, portability_sweep},
    {"fault_campaign", kSeed, fault_campaign},
    {"busy_poll_modes", kSmoke | kSeed, busy_poll_modes},
    {"blk_iops", kSweepFlags, blk_iops},
    {"sim_speed", kSweepFlags, sim_speed},
};

/// vfpga-bench's main: runs the entry argv[1] names with the flags after
/// it. No name or an unknown one prints `error: unknown experiment
/// "<name>"` and every entry's name, one a line, then exits 2.
inline int run_experiment(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Experiment& experiment : kExperiments) {
    if (name == experiment.name) {
      return experiment.run(parse_args(argc - 1, argv + 1, experiment.flags));
    }
  }
  std::string message = "unknown experiment \"" + std::string(name) + "\"";
  for (const Experiment& experiment : kExperiments) {
    message += std::string("\n") + experiment.name;
  }
  detail::fail(message);
}

}  // namespace vfpga::bench
