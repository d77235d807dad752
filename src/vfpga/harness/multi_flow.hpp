// Concurrent-flows UDP load generator: the harness's one engine for
// flows that share a testbed (bench/busy_poll_modes).
//
// Drives M concurrent UDP echo flows against one VirtioNetTestbed and
// its one RX/TX queue pair. Each flow owns a HostThread (its
// application/kernel context) and a UDP socket on its own source port.
// Within a trial, flows advance earliest-simulated-clock-first (ties to
// the lower flow index), so device contention on the shared queues (the
// QueueEngine busy timelines) shapes the latency tails exactly as
// concurrent senders would. Each echo may
// be followed by a pacing gap — spun on-core under RxMode::kBusyPoll,
// slept otherwise — the spin-vs-sleep trade the busy-poll sweep
// measures as CPU residency.
//
// Independent trials (fresh testbed, derived seed) run on the worker
// pool (harness::run_parallel); latencies land in per-trial
// stats::ShardedSamples shards. Trials share nothing, so the merged
// result is bit-identical at any worker-thread count (VFPGA_THREADS=1
// is the oracle; CI byte-diffs the busy_poll_modes --smoke table
// against it).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct MultiFlowConfig {
  /// Concurrent UDP flows (each on its own HostThread + socket).
  u16 flows = 8;
  u64 payload_bytes = 256;
  /// Measured echo round trips per flow (after warmup).
  u64 packets_per_flow = 200;
  u64 warmup_per_flow = 8;
  /// Independent repetitions, each a fresh testbed with a derived seed,
  /// run on the worker pool and merged.
  u32 trials = 4;
  /// Retry budget per echo (poll the RX queue between attempts).
  u32 max_attempts = 8;
  /// Receive path of every flow's socket.
  hostos::RxMode rx_mode = hostos::RxMode::kInterrupt;
  /// Per-recv spin budget of a kBusyPoll socket (zero = driver
  /// default). Adaptive sockets always keep the driver default.
  sim::Duration poll_budget{};
  /// Idle time after each echo: spun under kBusyPoll, slept otherwise.
  /// Zero sends back to back.
  sim::Duration pacing_gap{};
  /// Trial t runs on sim::derive_seed(seed, t).
  u64 seed = 20'25;
  /// Worker threads for the trials; 0 = worker_threads(trials).
  /// VFPGA_THREADS still overrides either way (env > this > hardware).
  unsigned threads = 0;
  core::TestbedOptions testbed{};
};

/// Per-flow outcome, merged across trials (flow f is the same identity
/// — the same source port — in every trial).
struct FlowResult {
  u16 flow = 0;
  u64 completed = 0;
  u64 failures = 0;  ///< echoes that exhausted the retry budget
  stats::SampleSet latency_us;
};

struct MultiFlowResult {
  u16 flows = 0;
  u64 payload_bytes = 0;
  std::vector<FlowResult> per_flow;
  /// All measured round trips, every flow and trial.
  stats::SampleSet all_latency_us;
  /// Mean over trials of (echoes completed / trial makespan).
  double aggregate_mpps = 0;
  double mean_makespan_us = 0;
  u64 failures = 0;
  /// Mean over flow-threads of software_time / wall-clock during the
  /// measured phase: the fraction of a core the flow consumed.
  double cpu_residency = 0;
  /// Mean over flow-threads of the share of that software time spent
  /// inside spin loops.
  double poll_share = 0;
  /// Driver counters, summed over trials.
  u64 busy_polls = 0;
  u64 busy_poll_harvested = 0;
  u64 busy_poll_spins = 0;
  u64 tx_kicks = 0;
  u64 tx_packets = 0;
};

MultiFlowResult run_multi_flow(const MultiFlowConfig& config);

/// One socket per flow on `bed`: flow f binds source port
/// `first_port + f`, so flow identities are stable across trials and
/// across two beds built from the same options.
std::vector<std::unique_ptr<hostos::UdpSocket>> flow_sockets(
    core::VirtioNetTestbed& bed, u16 flows, u16 first_port);

/// The measured step of the paper's echo (§III-B.1): charge one
/// application iteration, sendto, then block in recvfrom — up to
/// `max_attempts` times, polling the RX queue between attempts (another
/// flow's interrupt service may have demuxed the reply to our socket
/// queue, or a fault swallowed its interrupt). Returns the send-to-reply
/// latency when the reply matches `payload`; nullopt on a failed send, a
/// corrupted reply (not retried) or an exhausted budget.
std::optional<sim::Duration> echo_with_retry(core::VirtioNetTestbed& bed,
                                             hostos::HostThread& thread,
                                             hostos::UdpSocket& socket,
                                             ConstByteSpan payload,
                                             u32 max_attempts);

}  // namespace vfpga::harness
