#include "vfpga/harness/sim_speed.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/stats/sharded.hpp"

namespace vfpga::harness {

namespace {

constexpr u32 kEchoAttempts = 64;

// Echo fleet shape (DESIGN.md §14): a fixed window, and the FlowGen
// traffic every lane draws.
constexpr sim::Duration kEchoWindow = sim::microseconds(100);
constexpr double kEchoMeanGapUs = 50.0;
constexpr u32 kEchoPayloadMin = 64;
constexpr u32 kEchoPayloadMax = 1400;

/// Everything one lane owns: its shard of the simulated world. Only the
/// worker stepping this lane touches any of it during a window; the
/// cross-lane `notified` counter is bumped by message handlers, which
/// also run on the owning lane.
struct LaneContext {
  u32 id = 0;
  sim::EventLane* lane = nullptr;
  std::unique_ptr<core::VirtioNetTestbed> bed;
  std::unique_ptr<hostos::HostThread> thread;
  std::unique_ptr<net::FlowGen> gen;
  std::vector<std::unique_ptr<hostos::UdpSocket>> sockets;  // per slot
  stats::SampleSet* samples = nullptr;
  u64 quota = 0;
  u64 packets_done = 0;
  u64 failures = 0;
  u64 completions = 0;
  u64 notified = 0;  ///< cross-lane notification handlers that ran here
  sim::SimTime last_activity{};
};

class Runner {
 public:
  explicit Runner(const SimSpeedConfig& config)
      : config_(config),
        set_(sim::LaneSetConfig{.lanes = config.lanes, .window = kEchoWindow}),
        shards_(config.lanes, config.packets_per_lane),
        smallfn_baseline_(sim::SmallFn::heap_allocations()) {
    contexts_.reserve(config_.lanes);
    for (u32 i = 0; i < config_.lanes; ++i) {
      auto ctx = std::make_unique<LaneContext>();
      ctx->id = i;
      ctx->lane = &set_.lane(i);
      ctx->samples = &shards_.shard(i);
      ctx->quota = config_.packets_per_lane;

      core::TestbedOptions options;
      // Lane i takes elements 2i and 2i+1 of the SplitMix64 stream
      // seeded with config_.seed: testbed, then flow generator.
      options.seed = sim::derive_seed(config_.seed, 2 * u64{i});
      ctx->bed = std::make_unique<core::VirtioNetTestbed>(options);
      ctx->thread = ctx->bed->spawn_thread();

      // The lane's population: its slice of the GLOBAL RSS space. Every
      // flow's searched source port steers to slot `i` under net/rss's
      // Toeplitz hash, the flow-to-queue mapping an RSS device would
      // apply with one queue pair per lane.
      net::FlowGenConfig gen_config;
      gen_config.host_ip = hostos::KernelNetstack::kHostIp;
      gen_config.fpga_ip = ctx->bed->fpga_ip();
      gen_config.fpga_port = ctx->bed->options().fpga_udp_port;
      gen_config.pairs = static_cast<u16>(config_.lanes);
      gen_config.pair_set = {static_cast<u16>(i)};
      gen_config.flows = config_.flows_per_lane;
      gen_config.arrivals = config_.arrivals;
      gen_config.mean_gap_us = kEchoMeanGapUs;
      gen_config.size_max_packets = config_.size_max_packets;
      gen_config.payload_min = kEchoPayloadMin;
      gen_config.payload_max = kEchoPayloadMax;
      gen_config.seed = sim::derive_seed(config_.seed, 2 * u64{i} + 1);
      ctx->gen = std::make_unique<net::FlowGen>(gen_config);

      ctx->sockets.resize(config_.flows_per_lane);
      for (u32 slot = 0; slot < config_.flows_per_lane; ++slot) {
        ctx->sockets[slot] = std::make_unique<hostos::UdpSocket>(
            ctx->bed->stack(), ctx->gen->flow(slot).src_port);
      }
      contexts_.push_back(std::move(ctx));
    }

    // Seed each slot's first departure with a deterministic stagger so
    // the opening window is not one synchronized burst.
    for (u32 i = 0; i < config_.lanes; ++i) {
      sim::Scheduler& sched = contexts_[i]->lane->scheduler();
      for (u32 slot = 0; slot < config_.flows_per_lane; ++slot) {
        sched.schedule_at(sim::SimTime{} + sim::from_nanos(
                              static_cast<double>(slot + 1) * 137.0),
                          [this, i, slot] { fire_slot(i, slot); });
      }
    }
  }

  SimSpeedResult run(unsigned threads) {
    const auto wall_start = std::chrono::steady_clock::now();
    const sim::LaneSet::RunStats stats = set_.run(threads);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;

    SimSpeedResult r;
    r.lanes = config_.lanes;
    r.threads_used = threads;
    r.events = stats.events;
    r.windows = stats.windows;
    r.barriers = stats.barriers;
    r.cross_lane_messages = stats.messages;
    r.dropped_messages = stats.dropped;
    r.residency = stats.residency;
    sim::SimTime last{};
    for (const std::unique_ptr<LaneContext>& ctx : contexts_) {
      r.packets += ctx->packets_done;
      r.failures += ctx->failures;
      r.cross_lane_received += ctx->notified;
      r.flows_created += ctx->gen->flows_created();
      r.flows_completed += ctx->gen->flows_completed();
      r.flows_abandoned += ctx->gen->flows_abandoned();
      last = std::max(last, ctx->last_activity);
    }
    r.sim_makespan_us = (last - sim::SimTime{}).micros();
    for (u32 i = 0; i < config_.lanes; ++i) {
      r.arena_nodes += set_.lane(i).scheduler().arena().node_allocations();
    }
    r.smallfn_heap_fallbacks =
        sim::SmallFn::heap_allocations() - smallfn_baseline_;
    const stats::SampleSet merged = shards_.merged();
    r.latency = stats::LatencySummary::from(merged);
    r.sample_count = merged.count();
    r.wall_seconds = wall.count();
    r.packets_per_wall_second =
        wall.count() > 0 ? static_cast<double>(r.packets) / wall.count() : 0;
    return r;
  }

 private:
  /// One echo round trip through the lane's own testbed; true when the
  /// payload came back intact.
  bool echo(LaneContext& ctx, u32 slot, u32 payload_bytes, u8 tag) {
    Bytes payload(payload_bytes, tag);
    payload[0] = static_cast<u8>(ctx.packets_done & 0xff);
    const std::optional<sim::Duration> latency = echo_with_retry(
        *ctx.bed, *ctx.thread, *ctx.sockets[slot], payload, kEchoAttempts);
    if (latency.has_value()) {
      ctx.samples->add(*latency);
    }
    return latency.has_value();
  }

  /// Scheduler event: the slot's next packet departs now.
  void fire_slot(u32 lane_id, u32 slot) {
    LaneContext& ctx = *contexts_[lane_id];
    if (ctx.packets_done >= ctx.quota || !ctx.gen->flow(slot).open) {
      return;  // lane drained (or this slot closed) after scheduling
    }
    const net::FlowGen::Departure d = ctx.gen->next_packet(slot);
    if (!echo(ctx, slot, d.payload_bytes,
              static_cast<u8>(0x40 + d.flow_id % 0x80))) {
      ++ctx.failures;
    }
    ++ctx.packets_done;
    ctx.last_activity = ctx.lane->scheduler().now();
    if (ctx.packets_done >= ctx.quota) {
      drain(ctx);
      return;
    }
    sim::Scheduler& sched = ctx.lane->scheduler();
    if (!d.fin) {
      sched.schedule_after(d.gap, [this, lane_id, slot] {
        fire_slot(lane_id, slot);
      });
      return;
    }
    // Flow finished: tell the next lane (a real cross-lane message
    // through the rings; due = horizon() is the earliest legal instant),
    // then churn the slot.
    ++ctx.completions;
    const u32 dst = (lane_id + 1) % static_cast<u32>(contexts_.size());
    u64* counter = &contexts_[dst]->notified;
    set_.post(lane_id, dst, set_.horizon(), [counter] { ++*counter; });
    const sim::Duration arrival = ctx.gen->churn_slot(slot);
    // The replacement flow has a fresh source port: rebind its socket.
    ctx.sockets[slot] = std::make_unique<hostos::UdpSocket>(
        ctx.bed->stack(), ctx.gen->flow(slot).src_port);
    sched.schedule_after(arrival, [this, lane_id, slot] {
      fire_slot(lane_id, slot);
    });
  }

  /// Quota reached: abandon the still-open flows so the lane quiesces.
  void drain(LaneContext& ctx) {
    for (u32 slot = 0; slot < ctx.gen->slots(); ++slot) {
      if (ctx.gen->flow(slot).open) {
        ctx.gen->close_slot(slot);
      }
    }
  }

  SimSpeedConfig config_;
  sim::LaneSet set_;
  stats::ShardedSamples shards_;
  std::vector<std::unique_ptr<LaneContext>> contexts_;
  u64 smallfn_baseline_ = 0;
};

}  // namespace

SimSpeedResult run_sim_speed(const SimSpeedConfig& config) {
  VFPGA_EXPECTS(config.lanes >= 1 && config.flows_per_lane >= 1 &&
                config.packets_per_lane >= 1);
  // A nonzero request is used as given (clamped to the lane count, like
  // LaneSet::run); only 0 falls back to worker_threads, where
  // VFPGA_THREADS applies. Callers that want env > CLI > hardware
  // resolve it themselves before filling the config.
  const unsigned threads = config.threads > 0
                               ? std::min(config.threads, config.lanes)
                               : worker_threads(config.lanes);
  Runner runner(config);
  return runner.run(threads);
}

}  // namespace vfpga::harness
