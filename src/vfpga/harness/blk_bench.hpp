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
  /// Worker threads for run_blk_sweep's lanes; 0 = worker_threads().
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
  /// numbers are identical to a standalone run_blk_cell call — the
  /// lanes change where cells execute, never what they compute.
  std::vector<BlkCellResult> cells;

  // ---- lane-set execution (deterministic at any thread count) -------
  u64 lane_windows = 0;
  u64 lane_window_growths = 0;
  u64 lane_messages = 0;
  /// Cell-completion messages lane 0 executed — must equal cells.size().
  u32 cells_aggregated = 0;
};

/// Run the full sweep with cells sharded across event lanes: a fixed
/// lane count (independent of the worker pool, so results never depend
/// on it), each lane advancing its cells one completion-batch event at
/// a time, testbeds built lane-side in the parallel phase and released
/// as cells finish. Completions aggregate to lane 0 through the message
/// rings. Bit-identical at any thread count.
BlkSweepResult run_blk_sweep(const BlkBenchConfig& config);

}  // namespace vfpga::harness
