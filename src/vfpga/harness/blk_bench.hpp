// Virtio-blk IOPS/latency sweep harness.
//
// Runs a fixed-depth 50/50 random read/write workload against the
// attached blk personality through the async driver core, once per
// completion mode:
//
//  - kInterrupt: the kernel-style path — sleep on the queue's MSI-X
//    vector, drain on wake;
//  - kReactorPolled: the queue is switched to polled mode and hosted on
//    a reactor (reactor/reactor.hpp) with a submission poller keeping
//    the depth filled and a completion poller reaping via visibility-
//    gated harvest — the SPDK bdev execution model.
//
// Both modes run the same (seed, payload, depth) cell on the same
// testbed options, so the only difference is the completion path.
// Per-request latency comes from the driver's submit/complete
// timestamps; IOPS from measured ops over the simulated span.
#pragma once

#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

enum class BlkCompletionMode {
  kInterrupt,
  kReactorPolled,
};

struct BlkBenchConfig {
  u64 seed = 47109;
  /// Measured requests per cell (after warmup).
  u32 ops_per_cell = 400;
  u32 warmup_ops = 32;
  std::vector<u32> payloads = {512, 4096, 65536};
  std::vector<u16> queue_depths = {1, 2, 4, 8, 16, 32};
  /// Backing-store size; sectors are striped across it.
  u64 capacity_sectors = 8192;
  /// Worker threads for run_blk_sweep's cells; 0 = worker_threads().
  /// VFPGA_THREADS still overrides either way (env > this > hardware).
  unsigned threads = 0;
};

struct BlkCellResult {
  BlkCompletionMode mode{};
  u32 payload = 0;
  u16 queue_depth = 0;
  u64 ops = 0;
  u64 failures = 0;  ///< completions with a non-OK status byte
  stats::SampleSet latency_us;
  double iops = 0.0;
  /// Reactor-polled mode only: loop iterations and the share that found
  /// work (harvest or submit) — the spin overhead of the model.
  u64 reactor_iterations = 0;
  u64 reactor_busy_iterations = 0;
};

/// Run one (mode, payload, depth) cell. The testbed seed depends on
/// payload and depth but NOT mode, pairing the two completion paths.
BlkCellResult run_blk_cell(const BlkBenchConfig& config,
                           BlkCompletionMode mode, u32 payload,
                           u16 queue_depth);

struct BlkSweepResult {
  /// Every (payload, depth, mode) cell in canonical sweep order:
  /// payload-major, then depth, then {interrupt, reactor}. Each cell's
  /// numbers are identical to a standalone run_blk_cell call.
  std::vector<BlkCellResult> cells;
};

/// Run the full sweep, one run_blk_cell per cell on the worker pool
/// (harness::run_parallel). Cells share nothing, so the result is
/// bit-identical at any thread count.
BlkSweepResult run_blk_sweep(const BlkBenchConfig& config);

}  // namespace vfpga::harness
