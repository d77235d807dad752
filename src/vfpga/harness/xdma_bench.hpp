// XDMA (vendor driver) round-trip measurement runner (§III-B.2).
#pragma once

#include "vfpga/harness/experiment.hpp"

namespace vfpga::harness {

/// Run `iterations` back-to-back write()/read() round trips moving the
/// PCIe-equivalent byte count of a `payload`-byte UDP exchange
/// (virtio_wire_bytes; §IV-B buffer-size matching).
CellResult run_xdma_cell(const ExperimentConfig& config, u64 payload,
                         u64 seed);

/// Full payload sweep, one cell per payload on the worker pool;
/// identical at any VFPGA_THREADS.
SweepResult run_xdma_sweep(const ExperimentConfig& config);

}  // namespace vfpga::harness
