// Busy-poll datapath sweep: interrupt vs pure-poll vs adaptive RX.
//
// Drives the same UDP echo workload through the three receive paths the
// stack offers (RxMode) across payload sizes and concurrent flows, and
// reports latency percentiles alongside CPU residency — the trade the
// SO_BUSY_POLL literature is about: poll mode buys its tail-latency win
// by keeping a core runnable through the inter-arrival gaps.
//
// The workload paces one echo every pacing_gap: the interrupt and
// adaptive paths sleep out the gap (block_until), while pure poll spins
// through it (spin_until) — the dedicated-core deployment model. Seeds
// are derived per (payload, flows, trial) and shared across modes, so
// mode comparisons are paired and the acceptance gate (adaptive p50/p99
// no worse than interrupt) is stable.
//
// A second runner measures TX kick coalescing: bursts of MSG_MORE sends
// against the EVENT_IDX suppression machinery, counting doorbells per
// frame on split and packed rings.
#pragma once

#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct BusyPollBenchConfig {
  std::vector<u64> payloads = {64, 256, 512, 1024};
  /// Concurrent echo flows; each owns a queue pair (pairs = flows).
  u16 flows = 1;
  u64 iterations_per_flow = 300;
  u64 warmup_per_flow = 20;
  u32 trials = 3;
  /// Retry budget per echo (poll all queues between attempts).
  u32 max_attempts = 8;
  /// Idle time between echoes — what interrupt mode sleeps and pure
  /// poll burns.
  sim::Duration pacing_gap = sim::microseconds(25);
  /// Per-recv spin budget for the pure-poll socket (adaptive uses the
  /// driver's default).
  sim::Duration poll_budget = sim::microseconds(200);
  u64 seed = 0xb011;
  core::TestbedOptions testbed{};
};

/// One (mode, payload, flows) cell, merged over trials.
struct BusyPollCellResult {
  hostos::RxMode mode = hostos::RxMode::kInterrupt;
  u64 payload_bytes = 0;
  u16 flows = 0;
  stats::SampleSet latency_us;  ///< send -> matching reply, per echo
  /// Mean over flow-threads of software_time / wall-clock during the
  /// measured phase: the fraction of a core the receive path consumed.
  double cpu_residency = 0;
  /// Fraction of that software time spent inside spin loops.
  double poll_share = 0;
  u64 busy_polls = 0;
  u64 busy_poll_harvested = 0;
  u64 busy_poll_spins = 0;
  u64 tx_kicks = 0;
  u64 tx_packets = 0;
  u64 failures = 0;
};

BusyPollCellResult run_busy_poll_cell(const BusyPollBenchConfig& config,
                                      hostos::RxMode mode, u64 payload_bytes);

/// TX kick coalescing against EVENT_IDX: send `burst` frames per
/// iteration under MSG_MORE, harvest the echoes in poll mode, count
/// doorbells.
struct KickCoalescingResult {
  u32 burst = 1;
  bool packed_ring = false;
  u64 frames_sent = 0;
  u64 echoes_received = 0;
  u64 tx_kicks = 0;            ///< doorbells actually rung
  u64 tx_kicks_coalesced = 0;  ///< publishes deferred under MSG_MORE
  u64 device_frames = 0;       ///< controller's frames_processed
  double doorbells_per_frame = 0;
};

KickCoalescingResult run_kick_coalescing(const BusyPollBenchConfig& config,
                                         u32 burst, bool packed_ring);

}  // namespace vfpga::harness
