// VirtIO round-trip measurement runner (paper §III-B.1 test program).
#pragma once

#include "vfpga/harness/experiment.hpp"

namespace vfpga::harness {

/// Run `iterations` UDP echo round trips at one payload size on a fresh
/// testbed seeded with `seed`. The cell's software time is computed the
/// paper's way: measured total minus the FPGA performance-counter
/// interval minus the response-generation time (§IV-B).
CellResult run_virtio_cell(const ExperimentConfig& config, u64 payload,
                           u64 seed);

/// Full payload sweep, one cell per payload on the worker pool;
/// identical at any VFPGA_THREADS.
SweepResult run_virtio_sweep(const ExperimentConfig& config);

}  // namespace vfpga::harness
