#include "vfpga/harness/multi_flow.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/sim/scheduler.hpp"
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

/// One trial's outcome. The flows (threads, sockets, latency sets)
/// outlive the trial's testbed for the merge.
struct TrialResult {
  std::vector<FlowContext> flows;
  double makespan_us = 0;
  double throughput_mpps = 0;
  u64 cross_pair_rx = 0;
};

/// One trial: a fresh testbed and its flows on a private scheduler.
/// Each flow's next round trip is an event stamped with the flow's
/// thread clock, so the (when, seq) heap always advances the flow that
/// is furthest behind.
class Trial {
 public:
  Trial(const MultiFlowConfig& config, u32 index, stats::SampleSet& samples)
      : config_(config), index_(index), samples_(samples) {}
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  TrialResult run() {
    sched_.schedule_at(sim::SimTime{} + sim::nanoseconds(1),
                       [this] { set_up(); });
    sched_.run_until_idle();
    return std::move(result_);
  }

 private:
  void set_up() {
    core::TestbedOptions options = config_.testbed;
    options.seed = derive_seed(config_.seed, index_);
    options.net.max_queue_pairs = config_.queue_pairs;
    options.requested_queue_pairs = config_.queue_pairs;
    bed_ = std::make_unique<core::VirtioNetTestbed>(options);
    const u16 pairs = bed_->driver().queue_pairs();
    VFPGA_ASSERT(pairs == config_.queue_pairs);

    std::vector<FlowContext>& flows = result_.flows;
    flows.resize(config_.flows);
    const net::Ipv4Addr host_ip = hostos::KernelNetstack::kHostIp;
    u16 next_port = 20'000;
    for (u16 f = 0; f < config_.flows; ++f) {
      FlowContext& flow = flows[f];
      flow.pair = static_cast<u16>(f % pairs);
      const u16 port = net::search_source_port(
          host_ip, bed_->fpga_ip(), bed_->options().fpga_udp_port, pairs,
          flow.pair, next_port);
      next_port = static_cast<u16>(port + 1);
      flow.thread = bed_->spawn_thread();
      flow.socket = std::make_unique<hostos::UdpSocket>(bed_->stack(), port);
      flow.remaining = config_.packets_per_flow;
      flow.warmup = config_.warmup_per_flow;
      flow.payload.assign(config_.payload_bytes, static_cast<u8>(0xa0 + f));
      VFPGA_EXPECTS(!flow.payload.empty());
    }
    trial_start_ = bed_->thread().now();
    for (u16 f = 0; f < config_.flows; ++f) {
      if (flows[f].remaining + flows[f].warmup == 0) {
        continue;
      }
      ++flows_active_;
      schedule_flow(f);
    }
    if (flows_active_ == 0) {
      finish();
    }
  }

  void schedule_flow(u16 f) {
    sched_.schedule_at(std::max(result_.flows[f].thread->now(), sched_.now()),
                       [this, f] { flow_step(f); });
  }

  void flow_step(u16 f) {
    FlowContext& flow = result_.flows[f];
    const bool measure = flow.warmup == 0;
    const bool ok = echo_once(*bed_, flow, measure, config_.max_attempts);
    if (measure) {
      --flow.remaining;
      if (ok) {
        ++flow.completed;
        samples_.add_us(flow.latency_us.values_us().back());
      } else {
        ++flow.failures;
      }
    } else {
      --flow.warmup;
    }
    if (flow.remaining + flow.warmup > 0) {
      schedule_flow(f);
      return;
    }
    VFPGA_ASSERT(flows_active_ > 0);
    if (--flows_active_ == 0) {
      finish();
    }
  }

  void finish() {
    sim::SimTime end = trial_start_;
    u64 completed = 0;
    for (const FlowContext& flow : result_.flows) {
      end = std::max(end, flow.thread->now());
      completed += flow.completed;
    }
    result_.makespan_us = (end - trial_start_).micros();
    result_.throughput_mpps =
        result_.makespan_us > 0
            ? static_cast<double>(completed) / result_.makespan_us
            : 0.0;
    result_.cross_pair_rx = bed_->stack().steering_mismatches();
    bed_.reset();
  }

  const MultiFlowConfig& config_;
  u32 index_;
  stats::SampleSet& samples_;
  sim::Scheduler sched_;
  std::unique_ptr<core::VirtioNetTestbed> bed_;
  TrialResult result_;
  u16 flows_active_ = 0;
  sim::SimTime trial_start_{};
};

}  // namespace

MultiFlowResult run_multi_flow(const MultiFlowConfig& config) {
  VFPGA_EXPECTS(config.queue_pairs >= 1 && config.flows >= 1 &&
                config.trials >= 1);

  // One shard per trial: workers append concurrently without a lock;
  // the merge below happens after run_parallel joins (fork/join
  // happens-before).
  const std::size_t reserve =
      config.flows * (config.packets_per_flow + config.warmup_per_flow);
  stats::ShardedSamples all(config.trials, reserve);
  std::vector<TrialResult> trials(config.trials);
  std::vector<std::function<void()>> tasks;
  for (u32 t = 0; t < config.trials; ++t) {
    tasks.emplace_back(
        [&, t] { trials[t] = Trial{config, t, all.shard(t)}.run(); });
  }
  run_parallel(std::move(tasks), worker_threads(config.trials, config.threads));

  MultiFlowResult result;
  result.queue_pairs = config.queue_pairs;
  result.flows = config.flows;
  result.payload_bytes = config.payload_bytes;
  result.all_latency_us = all.merged();
  result.per_flow.resize(config.flows);
  double mpps = 0;
  double makespan = 0;
  for (const TrialResult& out : trials) {
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
  result.aggregate_mpps = mpps / config.trials;
  result.mean_makespan_us = makespan / config.trials;
  return result;
}

}  // namespace vfpga::harness
