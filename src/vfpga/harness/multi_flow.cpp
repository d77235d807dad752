#include "vfpga/harness/multi_flow.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/stats/sharded.hpp"

namespace vfpga::harness {

namespace {

/// One flow's simulation context within a trial.
struct FlowContext {
  std::unique_ptr<hostos::HostThread> thread;
  std::unique_ptr<hostos::UdpSocket> socket;
  u64 warmup = 0;
  u64 remaining = 0;  ///< measured echoes left
  Bytes payload;
  sim::SimTime measured_since{};  ///< start of the measured phase
};

/// One flow's share of a trial's outcome.
struct FlowTally {
  u64 completed = 0;
  u64 failures = 0;
  stats::SampleSet latency_us;
  sim::Duration wall{};      ///< length of the measured phase
  sim::Duration software{};  ///< software time within it
  sim::Duration poll{};      ///< spin time within that
};

/// One trial's outcome; outlives the trial's testbed for the merge.
struct TrialResult {
  std::vector<FlowTally> flows;
  double makespan_us = 0;
  double throughput_mpps = 0;
  u64 busy_polls = 0;
  u64 busy_poll_harvested = 0;
  u64 busy_poll_spins = 0;
  u64 tx_kicks = 0;
  u64 tx_packets = 0;
};

/// One trial: a fresh testbed whose flows advance earliest-clock-first,
/// ties to the lower flow index. Measured latencies also go to `shard`.
TrialResult run_trial(const MultiFlowConfig& config, u32 index,
                      stats::SampleSet& shard) {
  core::TestbedOptions options = config.testbed;
  options.seed = sim::derive_seed(config.seed, index);
  core::VirtioNetTestbed bed(options);

  // Declared after the testbed: the flows' threads and sockets die first.
  auto sockets = flow_sockets(bed, config.flows, 20'000);
  std::vector<FlowContext> flows(config.flows);
  for (u16 f = 0; f < config.flows; ++f) {
    FlowContext& flow = flows[f];
    flow.thread = bed.spawn_thread();
    flow.socket = std::move(sockets[f]);
    flow.socket->set_rx_mode(config.rx_mode);
    if (config.rx_mode == hostos::RxMode::kBusyPoll) {
      flow.socket->set_busy_poll_budget(config.poll_budget);
    }
    flow.warmup = config.warmup_per_flow;
    flow.remaining = config.packets_per_flow;
    flow.payload.assign(config.payload_bytes, static_cast<u8>(0xa0 + f));
    VFPGA_EXPECTS(!flow.payload.empty());
    flow.measured_since = flow.thread->now();
  }

  TrialResult result;
  result.flows.resize(config.flows);
  const sim::SimTime trial_start = bed.thread().now();
  for (;;) {
    std::size_t f = flows.size();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].warmup + flows[i].remaining > 0 &&
          (f == flows.size() ||
           flows[i].thread->now() < flows[f].thread->now())) {
        f = i;
      }
    }
    if (f == flows.size()) {
      break;
    }
    FlowContext& flow = flows[f];
    hostos::HostThread& t = *flow.thread;
    ++flow.payload[0];  // vary the payload so stale echoes cannot pass
    const std::optional<sim::Duration> latency = echo_with_retry(
        bed, t, *flow.socket, flow.payload, config.max_attempts);
    if (config.pacing_gap > sim::Duration{}) {
      // Poll mode's core never yields the gap (spin); the other modes
      // give it back to the scheduler (sleep).
      const sim::SimTime resume = t.now() + config.pacing_gap;
      if (config.rx_mode == hostos::RxMode::kBusyPoll) {
        t.spin_until(resume);
      } else {
        t.block_until(resume);
      }
    }
    if (flow.warmup > 0) {
      if (--flow.warmup == 0) {
        // Warm-up software time must not dilute the residency.
        t.reset_accounting();
        flow.measured_since = t.now();
      }
      continue;
    }
    --flow.remaining;
    FlowTally& tally = result.flows[f];
    if (latency.has_value()) {
      ++tally.completed;
      tally.latency_us.add(*latency);
      shard.add(*latency);
    } else {
      ++tally.failures;
    }
  }

  sim::SimTime end = trial_start;
  u64 completed = 0;
  for (u16 f = 0; f < config.flows; ++f) {
    const hostos::HostThread& t = *flows[f].thread;
    FlowTally& tally = result.flows[f];
    end = std::max(end, t.now());
    completed += tally.completed;
    tally.wall = t.now() - flows[f].measured_since;
    tally.software = t.software_time();
    tally.poll = t.poll_time();
  }
  result.makespan_us = (end - trial_start).micros();
  result.throughput_mpps =
      result.makespan_us > 0
          ? static_cast<double>(completed) / result.makespan_us
          : 0.0;
  result.busy_polls = bed.driver().busy_polls();
  result.busy_poll_harvested = bed.driver().busy_poll_harvested();
  result.busy_poll_spins = bed.driver().busy_poll_spins();
  result.tx_kicks = bed.driver().tx_kicks();
  result.tx_packets = bed.driver().tx_packets();
  return result;
}

}  // namespace

std::vector<std::unique_ptr<hostos::UdpSocket>> flow_sockets(
    core::VirtioNetTestbed& bed, u16 flows, u16 first_port) {
  VFPGA_EXPECTS(first_port + flows <= 0x10000);
  std::vector<std::unique_ptr<hostos::UdpSocket>> sockets;
  for (u16 f = 0; f < flows; ++f) {
    sockets.push_back(std::make_unique<hostos::UdpSocket>(
        bed.stack(), static_cast<u16>(first_port + f)));
  }
  return sockets;
}

std::optional<sim::Duration> echo_with_retry(core::VirtioNetTestbed& bed,
                                             hostos::HostThread& thread,
                                             hostos::UdpSocket& socket,
                                             ConstByteSpan payload,
                                             u32 max_attempts) {
  thread.exec(bed.options().costs.app_iteration);
  const sim::SimTime start = thread.now();
  if (!socket.sendto(thread, bed.fpga_ip(), bed.options().fpga_udp_port,
                     payload)) {
    return std::nullopt;
  }
  for (u32 attempt = 0; attempt < max_attempts; ++attempt) {
    const auto reply = socket.recvfrom(thread);
    if (reply.has_value()) {
      if (!std::ranges::equal(reply->payload, payload)) {
        return std::nullopt;  // corruption, not a timeout: don't retry
      }
      return thread.now() - start;
    }
    bed.stack().poll_rx(thread);
  }
  return std::nullopt;
}

MultiFlowResult run_multi_flow(const MultiFlowConfig& config) {
  VFPGA_EXPECTS(config.flows >= 1 && config.trials >= 1);

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
        [&, t] { trials[t] = run_trial(config, t, all.shard(t)); });
  }
  run_parallel(std::move(tasks), worker_threads(config.trials, config.threads));

  MultiFlowResult result;
  result.flows = config.flows;
  result.payload_bytes = config.payload_bytes;
  result.all_latency_us = all.merged();
  result.per_flow.resize(config.flows);
  double mpps = 0;
  double makespan = 0;
  // Trial order, then flow order: the residency sums are floating point.
  double residency_sum = 0;
  double poll_share_sum = 0;
  u32 residency_samples = 0;
  for (const TrialResult& out : trials) {
    for (u16 f = 0; f < config.flows; ++f) {
      const FlowTally& tally = out.flows[f];
      FlowResult& merged = result.per_flow[f];
      merged.flow = f;
      merged.completed += tally.completed;
      merged.failures += tally.failures;
      merged.latency_us.merge(tally.latency_us);
      result.failures += tally.failures;
      if (tally.wall > sim::Duration{}) {
        residency_sum += tally.software.micros() / tally.wall.micros();
        poll_share_sum += tally.software > sim::Duration{}
                              ? tally.poll.micros() / tally.software.micros()
                              : 0.0;
        ++residency_samples;
      }
    }
    mpps += out.throughput_mpps;
    makespan += out.makespan_us;
    result.busy_polls += out.busy_polls;
    result.busy_poll_harvested += out.busy_poll_harvested;
    result.busy_poll_spins += out.busy_poll_spins;
    result.tx_kicks += out.tx_kicks;
    result.tx_packets += out.tx_packets;
  }
  result.aggregate_mpps = mpps / config.trials;
  result.mean_makespan_us = makespan / config.trials;
  if (residency_samples > 0) {
    result.cpu_residency = residency_sum / residency_samples;
    result.poll_share = poll_share_sum / residency_samples;
  }
  return result;
}

}  // namespace vfpga::harness
