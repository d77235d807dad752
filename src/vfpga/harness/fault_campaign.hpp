// Randomized fault-injection campaigns.
//
// Sweeps (fault class x seed) over the paper's two workloads — the
// VirtIO UDP-echo path and the XDMA character-device loop-back — with
// the FaultPlane armed, and asserts the three robustness invariants per
// run: no hang (every operation completes within a bounded number of
// recovery attempts), no silent payload corruption (end-to-end echo /
// read-back integrity on every accepted result), and return to
// steady-state throughput after the plane is disarmed. Recovery latency
// (fault detection -> successful completion) is recorded per fault
// class as exact samples so the report can print p50/p99.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct CampaignConfig {
  /// Seeded runs per (fault class, workload) pair; each run builds a
  /// fresh testbed with seed base_seed + run index.
  u64 runs_per_class = 200;
  /// Operations (UDP echoes / write+read round trips) per run with the
  /// fault plane armed.
  u32 ops_per_run = 12;
  /// Operations after disarming that must succeed without any recovery
  /// action — the steady-state proof.
  u32 clean_ops = 4;
  /// Per-consult injection probability for the class under test.
  double fault_rate = 0.08;
  u64 base_seed = 202408;
  u64 udp_payload_bytes = 256;
  u64 xdma_bytes = 1024;
  /// Give up on one operation after this many end-to-end retries; an
  /// exhausted budget is a hang (liveness violation).
  u32 max_op_attempts = 8;
  /// Also bound each operation by simulated time as a belt-and-braces
  /// liveness check.
  sim::Duration op_time_bound = sim::milliseconds(50);
};

/// Aggregated result for one (fault class, workload) pair.
struct ClassReport {
  fault::FaultClass cls{};
  /// "udp-echo", "udp-indir", "chardev" or "blk-io"
  std::string workload;
  u64 runs = 0;
  u64 hangs = 0;         ///< ops that exhausted the retry/time budget
  u64 corruptions = 0;   ///< accepted results with mismatched payload
  u64 injected = 0;      ///< faults the plane actually injected
  u64 recoveries = 0;    ///< ops that hit a fault and still completed
  u64 device_resets = 0;
  u64 steady_state_failures = 0;  ///< post-disarm ops needing recovery
  stats::SampleSet recovery_us;   ///< detection -> completion latency

  [[nodiscard]] bool ok() const {
    return hangs == 0 && corruptions == 0 && steady_state_failures == 0;
  }
};

struct CampaignResult {
  std::vector<ClassReport> classes;
  [[nodiscard]] bool ok() const;
};

/// Deterministic per-op payload so a stale echo from a retransmitted
/// earlier request can never satisfy a later one.
Bytes make_payload(u64 bytes, u64 run_seed, u32 op);

struct EchoOutcome {
  bool ok = false;  ///< an intact echo came back within the bounds
  /// When the first failure (refused send, timeout, or corrupt/stale
  /// echo) was detected; nullopt when the first attempt succeeded.
  std::optional<sim::SimTime> first_failure;
};

/// One UDP echo with the full recovery ladder: send, up to 4 receive
/// tries, each failure followed by the TX watchdog and an
/// interrupt-less RX poll, retransmission after a device reset, bounded
/// by `max_attempts` sends and `time_bound` of simulated time.
EchoOutcome recovering_udp_echo(core::VirtioNetTestbed& bed,
                                hostos::UdpSocket& sock,
                                ConstByteSpan payload, u32 max_attempts,
                                sim::Duration time_bound);

/// Run the full campaign: every virtio-reachable fault class against
/// the UDP-echo workload, the DMA/engine classes against the chardev
/// workload.
CampaignResult run_fault_campaign(const CampaignConfig& config);

/// Human-readable per-class table (count / injected / hangs /
/// corruptions / resets / recovery p50/p99).
void print_campaign_report(const CampaignResult& result);

}  // namespace vfpga::harness
