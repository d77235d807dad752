// Self-benchmark of the simulation core: sharded lanes at scale.
//
// Every other bench measures the modelled device; this one measures the
// simulator. It builds one EventLane per queue-pair shard, gives each
// lane a private single-pair testbed plus a FlowGen population (the
// lane's slice of the global Toeplitz RSS space), and drives every
// generated packet through a real UDP echo round trip on that lane's
// host thread. Lanes only touch their own state during a window;
// flow-completion notifications hop to the next lane through the
// cross-lane message rings, so the parallel machinery is genuinely
// exercised, not just present.
//
// Two numbers matter:
//  * simulated packets per wall-clock second, and its speedup at N
//    worker threads over 1 (the perf claim), and
//  * the merged statistics, which must be BIT-IDENTICAL at every thread
//    count (the determinism claim — VFPGA_THREADS=1 is the oracle).
#pragma once

#include "vfpga/net/flowgen.hpp"
#include "vfpga/sim/event_lane.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct SimSpeedConfig {
  /// Lane (shard) count == queue pairs in the global RSS space.
  u32 lanes = 8;
  /// Live flow-table slots per lane (population stays at this level).
  u32 flows_per_lane = 1250;
  /// Echo round trips each lane performs before draining.
  u64 packets_per_lane = 2000;

  /// Unread: conservative windows are the only lane protocol. Kept
  /// because the benchmark harness still assigns it.
  sim::SyncMode sync = sim::SyncMode::kConservative;

  /// Traffic shape (see net::FlowGenConfig).
  net::ArrivalProcess arrivals = net::ArrivalProcess::kMmpp2;
  u64 size_max_packets = 512;

  u64 seed = 0x51'eedull;
  /// Worker threads for LaneSet::run, used exactly (clamped to the lane
  /// count); 0 = worker_threads(lanes), where VFPGA_THREADS applies.
  unsigned threads = 0;
};

struct SimSpeedResult {
  u32 lanes = 0;
  unsigned threads_used = 0;

  // ---- deterministic at any thread count (the --stats-only JSON) ----
  u64 packets = 0;   ///< echo round trips completed
  u64 events = 0;    ///< lane scheduler events fired
  u64 windows = 0;   ///< window phases executed
  u64 barriers = 0;  ///< barrier phases executed
  u64 cross_lane_messages = 0;
  u64 cross_lane_received = 0;  ///< notification handlers that ran
  u64 dropped_messages = 0;     ///< must be 0: rings were sized right
  u64 failures = 0;             ///< echoes that exhausted the retry budget
  u64 flows_created = 0;
  u64 flows_completed = 0;
  u64 flows_abandoned = 0;
  double sim_makespan_us = 0;  ///< latest lane activity, simulated time
  stats::LatencySummary latency{};  ///< merged echo latency
  u64 sample_count = 0;

  std::vector<sim::LaneSet::LaneResidency> residency;

  // ---- allocator health (deterministic: same events -> same arenas) -
  /// EventArena chunk allocations summed across lane schedulers — the
  /// high-water mark of pooled event nodes (chunks are never freed
  /// mid-run).
  u64 arena_nodes = 0;
  /// SmallFn captures that spilled to the heap during this run (delta
  /// of the process-wide counter): must stay 0, every hot-path lambda
  /// fits the inline buffer.
  u64 smallfn_heap_fallbacks = 0;

  // ---- wall-clock (excluded from the determinism diff) --------------
  double wall_seconds = 0;
  double packets_per_wall_second = 0;
};

/// Run the lane-sharded traffic simulation once. Everything in the
/// result except the wall-clock fields is a pure function of `config`
/// (including `threads` NOT affecting it — that is the determinism gate).
SimSpeedResult run_sim_speed(const SimSpeedConfig& config);

}  // namespace vfpga::harness
