#include "vfpga/harness/multi_flow.hpp"

#include <algorithm>
#include <memory>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/sim/event_lane.hpp"
#include "vfpga/stats/sharded.hpp"

namespace vfpga::harness {

namespace {

/// SplitMix64 step: decorrelated per-trial seed streams.
u64 derive_seed(u64 base, u64 index) {
  u64 z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One flow's simulation context within a trial.
struct FlowContext {
  std::unique_ptr<hostos::HostThread> thread;
  std::unique_ptr<hostos::UdpSocket> socket;
  u16 pair = 0;
  u64 remaining = 0;  ///< measured echoes left
  u64 warmup = 0;
  Bytes payload;
  u8 packet_tag = 0;
  stats::SampleSet latency_us;
  u64 completed = 0;
  u64 failures = 0;
};

/// One echo round trip for one flow: send, block for the reply, retry
/// via poll when another flow's interrupt service raced us. Returns
/// true and records the latency on success.
bool echo_once(core::VirtioNetTestbed& bed, FlowContext& flow, bool measure,
               u32 max_attempts) {
  hostos::HostThread& t = *flow.thread;
  t.exec(bed.options().costs.app_iteration);
  ++flow.payload[0];  // vary the payload so stale echoes cannot pass

  const sim::SimTime start = t.now();
  if (!flow.socket->sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                           flow.payload)) {
    return false;
  }
  for (u32 attempt = 0; attempt < max_attempts; ++attempt) {
    const auto reply = flow.socket->recvfrom(t);
    if (reply.has_value()) {
      if (reply->payload.size() != flow.payload.size() ||
          !std::equal(flow.payload.begin(), flow.payload.end(),
                      reply->payload.begin())) {
        return false;  // corruption, not a timeout: don't retry
      }
      if (measure) {
        flow.latency_us.add(t.now() - start);
      }
      return true;
    }
    // Our pair's interrupt may have been consumed by a concurrent
    // flow's service pass (which demuxed our datagram to our socket
    // queue), or the echo was diverted by a steering fault: poll every
    // queue, then re-check the socket.
    bed.stack().poll_rx(t);
  }
  return false;
}

/// One trial: a testbed plus its flows, owned by exactly one event lane.
struct TrialState {
  std::unique_ptr<core::VirtioNetTestbed> bed;
  std::vector<FlowContext> flows;
  u16 flows_active = 0;
  sim::SimTime trial_start{};
  double makespan_us = 0;
  double throughput_mpps = 0;
  u64 cross_pair_rx = 0;
};

/// Drives config.trials independent trials, one per event lane. The
/// old implementation interleaved a trial's flows with an explicit
/// earliest-clock-first scan; here each flow's next round trip is a
/// lane-scheduler event stamped with the flow's thread clock, and the
/// (when, seq) heap produces the same furthest-behind-first order —
/// while whole trials execute concurrently under the window protocol.
class TrialLanes {
 public:
  TrialLanes(const MultiFlowConfig& config, stats::ShardedSamples& all)
      : config_(config), all_(all), set_(lane_config(config)) {
    states_.resize(config_.trials);
    for (u32 t = 0; t < config_.trials; ++t) {
      // The testbed is built inside the lane's first event, so trial
      // construction happens in the parallel phase too.
      set_.lane(t).scheduler().schedule_at(
          sim::SimTime{} + sim::nanoseconds(1),
          [this, t] { start_trial(t); });
    }
  }

  sim::LaneSet::RunStats run(unsigned threads) { return set_.run(threads); }

  [[nodiscard]] const TrialState& trial(u32 t) const { return states_[t]; }
  [[nodiscard]] u32 trials_aggregated() const { return trials_aggregated_; }

 private:
  static sim::LaneSetConfig lane_config(const MultiFlowConfig& config) {
    sim::LaneSetConfig lc;
    lc.lanes = config.trials;
    lc.window = sim::microseconds(100);
    // Trials only talk at completion, so the controller quickly widens
    // the window and the barrier cost fades; the latency numbers are
    // lane-local and unaffected (completion messages carry counters,
    // not timing).
    lc.adaptive.enabled = true;
    lc.adaptive.min_window = sim::microseconds(25);
    lc.adaptive.max_window = sim::milliseconds(10);
    return lc;
  }

  void start_trial(u32 t) {
    TrialState& st = states_[t];
    core::TestbedOptions options = config_.testbed;
    options.seed = derive_seed(config_.seed, t);
    options.net.max_queue_pairs = config_.queue_pairs;
    options.requested_queue_pairs = config_.queue_pairs;
    st.bed = std::make_unique<core::VirtioNetTestbed>(options);
    const u16 pairs = st.bed->driver().queue_pairs();
    VFPGA_ASSERT(pairs == config_.queue_pairs);

    st.flows.resize(config_.flows);
    const net::Ipv4Addr host_ip = st.bed->stack().config().host_ip;
    u16 next_port = 20'000;
    for (u16 f = 0; f < config_.flows; ++f) {
      FlowContext& flow = st.flows[f];
      flow.pair = static_cast<u16>(f % pairs);
      const u16 port = net::search_source_port(
          host_ip, st.bed->fpga_ip(), st.bed->options().fpga_udp_port, pairs,
          flow.pair, next_port);
      next_port = static_cast<u16>(port + 1);
      flow.thread = st.bed->spawn_thread();
      flow.socket =
          std::make_unique<hostos::UdpSocket>(st.bed->stack(), port);
      flow.remaining = config_.packets_per_flow;
      flow.warmup = config_.warmup_per_flow;
      flow.payload.assign(config_.payload_bytes, static_cast<u8>(0xa0 + f));
      VFPGA_EXPECTS(!flow.payload.empty());
    }
    st.trial_start = st.bed->thread().now();
    st.flows_active = 0;
    sim::Scheduler& sched = set_.lane(t).scheduler();
    for (u16 f = 0; f < config_.flows; ++f) {
      if (st.flows[f].remaining + st.flows[f].warmup == 0) {
        continue;
      }
      ++st.flows_active;
      schedule_flow(sched, st.flows[f], t, f);
    }
    if (st.flows_active == 0) {
      finish_trial(t);
    }
  }

  /// The flow's next round trip fires at its thread's clock — the heap
  /// then always advances the flow that is furthest behind.
  void schedule_flow(sim::Scheduler& sched, const FlowContext& flow, u32 t,
                     u16 f) {
    sched.schedule_at(std::max(flow.thread->now(), sched.now()),
                      [this, t, f] { flow_step(t, f); });
  }

  void flow_step(u32 t, u16 f) {
    TrialState& st = states_[t];
    FlowContext& flow = st.flows[f];
    const bool measure = flow.warmup == 0;
    const bool ok = echo_once(*st.bed, flow, measure, config_.max_attempts);
    if (measure) {
      --flow.remaining;
      if (ok) {
        ++flow.completed;
        all_.shard(t).add_us(flow.latency_us.values_us().back());
      } else {
        ++flow.failures;
      }
    } else {
      --flow.warmup;
    }
    if (flow.remaining + flow.warmup > 0) {
      schedule_flow(set_.lane(t).scheduler(), flow, t, f);
      return;
    }
    VFPGA_ASSERT(st.flows_active > 0);
    if (--st.flows_active == 0) {
      finish_trial(t);
    }
  }

  void finish_trial(u32 t) {
    TrialState& st = states_[t];
    sim::SimTime end = st.trial_start;
    u64 completed = 0;
    for (const FlowContext& flow : st.flows) {
      end = std::max(end, flow.thread->now());
      completed += flow.completed;
    }
    st.makespan_us = (end - st.trial_start).micros();
    st.throughput_mpps =
        st.makespan_us > 0 ? static_cast<double>(completed) / st.makespan_us
                           : 0.0;
    st.cross_pair_rx = st.bed->stack().steering_mismatches();
    // The testbed is done; the flows (threads, sockets, latency sets)
    // outlive it for the merge, exactly as the pre-lane harness did.
    st.bed.reset();
    // Completion crosses to lane 0 through the rings — the aggregation
    // counter is lane-0 state and must not be touched from lane t.
    set_.post(t, 0, set_.horizon(), [this] { ++trials_aggregated_; });
  }

  const MultiFlowConfig& config_;
  stats::ShardedSamples& all_;
  sim::LaneSet set_;
  std::vector<TrialState> states_;
  u32 trials_aggregated_ = 0;
};

}  // namespace

MultiFlowResult run_multi_flow(const MultiFlowConfig& config) {
  VFPGA_EXPECTS(config.queue_pairs >= 1 && config.flows >= 1 &&
                config.trials >= 1);

  // One shard per trial lane: lane workers append concurrently without
  // a lock; the merge below happens after LaneSet::run joins (fork/join
  // happens-before, satellite of the multi-queue plane).
  const std::size_t reserve =
      config.flows * (config.packets_per_flow + config.warmup_per_flow);
  stats::ShardedSamples all(config.trials, reserve);

  TrialLanes lanes(config, all);
  const sim::LaneSet::RunStats lane_stats =
      lanes.run(worker_threads(config.trials, config.threads));
  VFPGA_ASSERT(lane_stats.dropped == 0);

  MultiFlowResult result;
  result.lane_windows = lane_stats.windows;
  result.lane_window_growths = lane_stats.window_growths;
  result.lane_messages = lane_stats.messages;
  result.trials_aggregated = lanes.trials_aggregated();
  result.queue_pairs = config.queue_pairs;
  result.flows = config.flows;
  result.payload_bytes = config.payload_bytes;
  result.all_latency_us = all.merged();
  result.per_flow.resize(config.flows);
  double mpps = 0;
  double makespan = 0;
  for (u32 t = 0; t < config.trials; ++t) {
    const TrialState& out = lanes.trial(t);
    for (u16 f = 0; f < config.flows; ++f) {
      FlowResult& merged = result.per_flow[f];
      merged.flow = f;
      merged.pair = out.flows[f].pair;
      merged.completed += out.flows[f].completed;
      merged.failures += out.flows[f].failures;
      merged.latency_us.merge(out.flows[f].latency_us);
      result.failures += out.flows[f].failures;
    }
    mpps += out.throughput_mpps;
    makespan += out.makespan_us;
    result.cross_pair_rx += out.cross_pair_rx;
  }
  VFPGA_ASSERT(result.trials_aggregated == config.trials);
  result.aggregate_mpps = mpps / config.trials;
  result.mean_makespan_us = makespan / config.trials;
  return result;
}

}  // namespace vfpga::harness
