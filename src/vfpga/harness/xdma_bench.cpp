#include "vfpga/harness/xdma_bench.hpp"

#include "vfpga/harness/parallel.hpp"

namespace vfpga::harness {

CellResult run_xdma_cell(const ExperimentConfig& config, u64 payload,
                         u64 seed) {
  core::TestbedOptions options = config.testbed;
  options.seed = seed;
  core::XdmaTestbed bed{options};

  CellResult cell;
  cell.payload = payload;
  const u64 wire_bytes = core::virtio_wire_bytes(payload);

  const u64 total_iters = config.warmup + config.iterations;
  for (u64 i = 0; i < total_iters; ++i) {
    const auto rt = bed.write_read_round_trip(wire_bytes);
    if (!rt.ok) {
      ++cell.failures;
      continue;
    }
    if (i < config.warmup) {
      continue;
    }
    cell.total_us.add(rt.total);
    cell.hardware_us.add(rt.hardware);
    cell.software_us.add(rt.total - rt.hardware);
  }
  return cell;
}

SweepResult run_xdma_sweep(const ExperimentConfig& config) {
  return run_sweep("XDMA", config, config.seed ^ 0xdadau, run_xdma_cell);
}

}  // namespace vfpga::harness
