#include "vfpga/harness/virtio_bench.hpp"

#include "vfpga/harness/parallel.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

CellResult run_virtio_cell(const ExperimentConfig& config, u64 payload,
                           u64 seed) {
  core::TestbedOptions options = config.testbed;
  options.seed = seed;
  core::VirtioNetTestbed bed{options};

  CellResult cell;
  cell.payload = payload;

  // Deterministic payload pattern; varied per iteration so the echo
  // check cannot pass on stale data.
  Bytes buffer(payload);
  sim::Xoshiro256 pattern_rng{seed ^ 0xc0ffee};
  for (auto& b : buffer) {
    b = static_cast<u8>(pattern_rng());
  }

  const u64 total_iters = config.warmup + config.iterations;
  for (u64 i = 0; i < total_iters; ++i) {
    buffer[0] = static_cast<u8>(i);
    const auto rt = bed.udp_round_trip(buffer);
    if (!rt.ok) {
      ++cell.failures;
      continue;
    }
    if (i < config.warmup) {
      continue;
    }
    cell.total_us.add(rt.total);
    cell.hardware_us.add(rt.hardware);
    cell.software_us.add(rt.total - rt.hardware - rt.response_gen);
  }
  return cell;
}

SweepResult run_virtio_sweep(const ExperimentConfig& config) {
  return run_sweep("VirtIO", config, config.seed, run_virtio_cell);
}

}  // namespace vfpga::harness
