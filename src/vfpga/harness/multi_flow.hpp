// Concurrent-flows UDP load generator for the multi-queue data plane.
//
// Drives M concurrent UDP echo flows against one multi-queue
// VirtioNetTestbed. Each flow owns a HostThread (its application/kernel
// context) and a UDP socket whose source port is searched so the flow's
// Toeplitz hash steers it to queue pair f mod P — every pair carries
// traffic whenever flows >= pairs. Within a trial, flows advance
// earliest-simulated-clock-first (each flow's next round trip is a
// scheduler event stamped with its thread's clock), so per-queue device
// contention (the QueueEngine busy timelines) shapes the latency tails
// exactly as concurrent senders would.
//
// Independent trials (fresh testbed, derived seed) are sharded across a
// sim::LaneSet — one event lane per trial, the testbed built inside the
// lane's first event so construction itself runs in the parallel phase.
// Trial completions hop to lane 0 through the visibility-gated message
// rings; latencies land in per-trial stats::ShardedSamples shards. Like
// every LaneSet workload, the merged result is bit-identical at any
// worker-thread count (VFPGA_THREADS=1 is the oracle; CI byte-diffs the
// mq_scaling --stats-only JSON against it).
#pragma once

#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct MultiFlowConfig {
  /// Queue pairs: the device advertises this many and the driver
  /// requests the same (options.testbed values are overridden).
  u16 queue_pairs = 4;
  /// Concurrent UDP flows (each on its own HostThread + socket).
  u16 flows = 8;
  u64 payload_bytes = 256;
  /// Measured echo round trips per flow (after warmup).
  u64 packets_per_flow = 200;
  u64 warmup_per_flow = 8;
  /// Independent repetitions, each a fresh testbed with a derived seed,
  /// run on the worker pool and merged.
  u32 trials = 4;
  /// Retry budget per echo (poll all queues between attempts).
  u32 max_attempts = 8;
  u64 seed = 20'25;
  /// Worker threads for the trial lanes; 0 = worker_threads(trials).
  /// VFPGA_THREADS still overrides either way (env > this > hardware).
  unsigned threads = 0;
  core::TestbedOptions testbed{};
};

/// Per-flow outcome, merged across trials (flow f is the same identity
/// — port-searched onto pair f mod P — in every trial).
struct FlowResult {
  u16 flow = 0;
  u16 pair = 0;  ///< queue pair the flow's 4-tuple steers to
  u64 completed = 0;
  u64 failures = 0;  ///< echoes that exhausted the retry budget
  stats::SampleSet latency_us;
};

struct MultiFlowResult {
  u16 queue_pairs = 0;  ///< negotiated (may be < requested)
  u16 flows = 0;
  u64 payload_bytes = 0;
  std::vector<FlowResult> per_flow;
  /// All measured round trips, every flow and trial.
  stats::SampleSet all_latency_us;
  /// Mean over trials of (echoes completed / trial makespan).
  double aggregate_mpps = 0;
  double mean_makespan_us = 0;
  u64 failures = 0;
  /// UDP frames that arrived on a pair other than their flow's — must
  /// be 0 without fault injection (steering is deterministic).
  u64 cross_pair_rx = 0;

  // ---- lane-set execution (deterministic at any thread count) -------
  u64 lane_windows = 0;         ///< barrier phases across the run
  u64 lane_window_growths = 0;  ///< adaptive controller widenings
  u64 lane_messages = 0;        ///< cross-lane messages routed
  /// Trial-completion messages lane 0 executed — trials, or the
  /// aggregation path lost one.
  u32 trials_aggregated = 0;
};

MultiFlowResult run_multi_flow(const MultiFlowConfig& config);

}  // namespace vfpga::harness
