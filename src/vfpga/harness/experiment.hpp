// Experiment configuration shared by all paper-reproduction benches.
#pragma once

#include <string>
#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct ExperimentConfig {
  /// Paper §III-B.3: "Each test consists of 50,000 packets for each
  /// payload size." The benches take VFPGA_ITERATIONS for quick runs.
  u64 iterations = 50'000;
  u64 warmup = 64;
  u64 seed = 2024;
  /// The paper's payload sweep (Figs. 3-5, Table I).
  std::vector<u64> payloads = {64, 128, 256, 512, 1024};
  core::TestbedOptions testbed{};
};

/// Per-round-trip measurements for one (driver, payload) cell.
struct CellResult {
  u64 payload = 0;
  stats::SampleSet total_us;
  stats::SampleSet hardware_us;
  stats::SampleSet software_us;  ///< total - hardware - response_gen
  u64 failures = 0;
};

/// A full sweep for one driver.
struct SweepResult {
  std::string driver_name;
  std::vector<CellResult> cells;
};

}  // namespace vfpga::harness
