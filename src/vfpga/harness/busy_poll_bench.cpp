#include "vfpga/harness/busy_poll_bench.hpp"

#include <algorithm>
#include <memory>

#include "vfpga/common/contract.hpp"
#include "vfpga/net/rss.hpp"

namespace vfpga::harness {

namespace {

/// SplitMix64 step: decorrelated per-trial seed streams (same generator
/// the multi-flow harness uses, so seeds stay stable artifacts).
u64 derive_seed(u64 base, u64 index) {
  u64 z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

u16 search_port(net::Ipv4Addr host_ip, net::Ipv4Addr fpga_ip, u16 fpga_port,
                u16 pairs, u16 want_pair, u16 from) {
  for (u16 port = from;; ++port) {
    VFPGA_ASSERT(port >= from);
    if (net::steer(net::rss_flow_hash(host_ip, port, fpga_ip, fpga_port),
                   pairs) == want_pair) {
      return port;
    }
  }
}

struct FlowContext {
  std::unique_ptr<hostos::HostThread> thread;
  std::unique_ptr<hostos::UdpSocket> socket;
  u64 remaining = 0;
  u64 warmup = 0;
  Bytes payload;
  sim::SimTime measured_since{};
  bool measuring = false;
};

/// One paced echo: app bookkeeping, send, receive via the socket's
/// configured path (with the lost-wake retry poll), then the pacing gap
/// — slept or spun per mode. Records the send->reply latency.
bool echo_once(core::VirtioNetTestbed& bed, FlowContext& flow,
               hostos::RxMode mode, const BusyPollBenchConfig& config,
               stats::SampleSet& latency) {
  hostos::HostThread& t = *flow.thread;
  t.exec(bed.options().costs.app_iteration);
  ++flow.payload[0];

  const sim::SimTime start = t.now();
  bool ok = false;
  if (flow.socket->sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                          flow.payload)) {
    for (u32 attempt = 0; attempt < config.max_attempts; ++attempt) {
      const auto reply = flow.socket->recvfrom(t);
      if (reply.has_value()) {
        ok = reply->payload.size() == flow.payload.size() &&
             std::equal(flow.payload.begin(), flow.payload.end(),
                        reply->payload.begin());
        break;
      }
      bed.stack().poll_rx(t);
    }
  }
  if (ok && flow.measuring) {
    latency.add(t.now() - start);
  }

  // Inter-arrival gap: poll mode's core never yields (spin), the other
  // modes give it back to the scheduler (sleep).
  const sim::SimTime resume = t.now() + config.pacing_gap;
  if (mode == hostos::RxMode::kBusyPoll) {
    t.spin_until(resume);
  } else {
    t.block_until(resume);
  }
  return ok;
}

}  // namespace

BusyPollCellResult run_busy_poll_cell(const BusyPollBenchConfig& config,
                                      hostos::RxMode mode,
                                      u64 payload_bytes) {
  VFPGA_EXPECTS(config.flows >= 1 && config.trials >= 1);
  BusyPollCellResult result;
  result.mode = mode;
  result.payload_bytes = payload_bytes;
  result.flows = config.flows;

  double residency_sum = 0;
  double poll_share_sum = 0;
  u32 residency_samples = 0;

  for (u32 trial = 0; trial < config.trials; ++trial) {
    core::TestbedOptions options = config.testbed;
    // Seed shared by all three modes of this (payload, flows, trial)
    // cell: the comparison is paired, only the datapath differs.
    options.seed =
        derive_seed(config.seed, payload_bytes * 131 + config.flows * 7 + trial);
    options.net.max_queue_pairs = config.flows;
    options.requested_queue_pairs = config.flows;
    core::VirtioNetTestbed bed(options);
    const u16 pairs = bed.driver().queue_pairs();
    VFPGA_ASSERT(pairs == config.flows);

    std::vector<FlowContext> flows(config.flows);
    const net::Ipv4Addr host_ip = hostos::KernelNetstack::kHostIp;
    u16 next_port = 21'000;
    for (u16 f = 0; f < config.flows; ++f) {
      FlowContext& flow = flows[f];
      const u16 port =
          search_port(host_ip, bed.fpga_ip(), bed.options().fpga_udp_port,
                      pairs, static_cast<u16>(f % pairs), next_port);
      next_port = static_cast<u16>(port + 1);
      flow.thread = bed.spawn_thread();
      flow.socket = std::make_unique<hostos::UdpSocket>(bed.stack(), port);
      flow.socket->set_rx_mode(mode);
      if (mode == hostos::RxMode::kBusyPoll) {
        flow.socket->set_busy_poll_budget(config.poll_budget);
      }
      flow.remaining = config.iterations_per_flow;
      flow.warmup = config.warmup_per_flow;
      flow.payload.assign(payload_bytes, static_cast<u8>(0xb0 + f));
    }

    // Earliest-clock-first: advance the flow furthest behind.
    for (;;) {
      FlowContext* next = nullptr;
      for (FlowContext& flow : flows) {
        if (flow.remaining + flow.warmup == 0) {
          continue;
        }
        if (next == nullptr || flow.thread->now() < next->thread->now()) {
          next = &flow;
        }
      }
      if (next == nullptr) {
        break;
      }
      if (next->warmup > 0) {
        --next->warmup;
        echo_once(bed, *next, mode, config, result.latency_us);
        if (next->warmup == 0) {
          // Measurement phase starts here: reset the residency
          // accumulators so warmup software time doesn't dilute them.
          next->thread->reset_accounting();
          next->measured_since = next->thread->now();
          next->measuring = true;
        }
        continue;
      }
      --next->remaining;
      if (!echo_once(bed, *next, mode, config, result.latency_us)) {
        ++result.failures;
      }
    }

    for (FlowContext& flow : flows) {
      const sim::Duration wall = flow.thread->now() - flow.measured_since;
      const sim::Duration software = flow.thread->software_time();
      if (wall > sim::Duration{}) {
        residency_sum += software.micros() / wall.micros();
        poll_share_sum +=
            software > sim::Duration{}
                ? flow.thread->poll_time().micros() / software.micros()
                : 0.0;
        ++residency_samples;
      }
    }
    result.busy_polls += bed.driver().busy_polls();
    result.busy_poll_harvested += bed.driver().busy_poll_harvested();
    result.busy_poll_spins += bed.driver().busy_poll_spins();
    result.tx_kicks += bed.driver().tx_kicks();
    result.tx_packets += bed.driver().tx_packets();
  }

  if (residency_samples > 0) {
    result.cpu_residency = residency_sum / residency_samples;
    result.poll_share = poll_share_sum / residency_samples;
  }
  return result;
}

KickCoalescingResult run_kick_coalescing(const BusyPollBenchConfig& config,
                                         u32 burst, bool packed_ring) {
  VFPGA_EXPECTS(burst >= 1);
  KickCoalescingResult result;
  result.burst = burst;
  result.packed_ring = packed_ring;

  core::TestbedOptions options = config.testbed;
  options.seed = derive_seed(config.seed, 0x9000 + burst * 2 + (packed_ring ? 1 : 0));
  options.use_packed_rings = packed_ring;  // testbed sets offer_packed
  core::VirtioNetTestbed bed(options);
  VFPGA_ASSERT(bed.driver().using_packed_rings() == packed_ring);

  bed.driver().set_kick_coalesce(burst);
  bed.socket().set_rx_mode(hostos::RxMode::kBusyPoll);
  bed.socket().set_busy_poll_budget(config.poll_budget);

  hostos::HostThread& t = bed.thread();
  Bytes payload(std::max<u64>(config.payloads.front(), 16), 0xc5);
  const u64 iterations = std::max<u64>(config.iterations_per_flow / 4, 8);
  for (u64 i = 0; i < iterations; ++i) {
    // One burst: every sendto but the last carries MSG_MORE, so the
    // driver defers the publish and the doorbell until the burst ends —
    // one avail-idx update, one EVENT_IDX decision, at most one kick.
    for (u32 b = 0; b < burst; ++b) {
      payload[0] = static_cast<u8>(i + b);
      const bool more = b + 1 < burst;
      if (bed.socket().sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                              payload, more)) {
        ++result.frames_sent;
      }
    }
    // Harvest the burst's echoes (the first recv busy-polls them all
    // into the socket queue; the rest dequeue without touching rings).
    for (u32 b = 0; b < burst; ++b) {
      for (u32 attempt = 0; attempt < config.max_attempts; ++attempt) {
        if (bed.socket().recvfrom(t).has_value()) {
          ++result.echoes_received;
          break;
        }
        bed.stack().poll_rx(t);
      }
    }
  }

  result.tx_kicks = bed.driver().tx_kicks();
  result.tx_kicks_coalesced = bed.driver().tx_kicks_coalesced();
  result.device_frames = bed.device().frames_processed();
  result.doorbells_per_frame =
      result.frames_sent > 0
          ? static_cast<double>(result.tx_kicks) /
                static_cast<double>(result.frames_sent)
          : 0.0;
  return result;
}

}  // namespace vfpga::harness
