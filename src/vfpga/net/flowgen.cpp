#include "vfpga/net/flowgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vfpga/common/contract.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/sim/distributions.hpp"

namespace vfpga::net {

u64 sample_flow_size_packets(sim::Xoshiro256& rng,
                             const FlowGenConfig& config) {
  const double lo = static_cast<double>(config.size_min_packets);
  const double hi = static_cast<double>(config.size_max_packets);
  VFPGA_EXPECTS(lo >= 1.0 && hi >= lo && config.size_shape > 0.0);
  // Bounded Pareto by inverse CDF: F(x) = (1-(L/x)^a) / (1-(L/H)^a).
  const double a = config.size_shape;
  const double ratio = std::pow(lo / hi, a);
  const double u = rng.uniform01();
  const double x = lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / a);
  const double clamped = std::min(std::max(x, lo), hi);
  return static_cast<u64>(clamped);
}

FlowGen::FlowGen(const FlowGenConfig& config)
    : config_(config), rng_(config.seed) {
  VFPGA_EXPECTS(config_.flows >= 1);
  VFPGA_EXPECTS(config_.pairs >= 1);
  VFPGA_EXPECTS(config_.payload_min >= 1 &&
                config_.payload_max >= config_.payload_min);
  VFPGA_EXPECTS(config_.mean_gap_us > 0.0);
  VFPGA_EXPECTS(static_cast<u32>(config_.first_port) < kPortBandEnd);
  VFPGA_EXPECTS(config_.size_max_packets <=
                std::numeric_limits<u32>::max());
  for (const u16 pair : config_.pair_set) {
    VFPGA_EXPECTS(pair < config_.pairs);
  }

  pair_active_.assign(config_.pairs, config_.pair_set.empty() ? 1 : 0);
  for (const u16 pair : config_.pair_set) {
    pair_active_[pair] = 1;
  }
  free_by_pair_.resize(config_.pairs);
  carve_port_ = config_.first_port;

  ids_.resize(config_.flows);
  remaining_.resize(config_.flows);
  ports_.resize(config_.flows);
  flags_.assign(config_.flows, 0);
  for (u32 slot = 0; slot < config_.flows; ++slot) {
    open_slot(slot, allocate_port(pair_for_slot(slot)));
  }
}

FlowGen::Flow FlowGen::flow(u32 slot) const {
  VFPGA_EXPECTS(slot < slots());
  Flow view;
  view.id = ids_[slot];
  view.src_port = ports_[slot];
  view.pair = pair_for_slot(slot);
  view.open = (flags_[slot] & kOpen) != 0;
  return view;
}

u16 FlowGen::pair_for_slot(u32 slot) const {
  if (config_.pair_set.empty()) {
    return static_cast<u16>(slot % config_.pairs);
  }
  return config_.pair_set[slot % config_.pair_set.size()];
}

void FlowGen::carve_port() {
  const u16 port = static_cast<u16>(carve_port_++);
  const u16 pair =
      steer(rss_flow_hash(config_.host_ip, port, config_.fpga_ip,
                          config_.fpga_port),
            config_.pairs);
  if (pair_active_[pair] != 0) {
    free_by_pair_[pair].push_back(port);
  }
}

u16 FlowGen::allocate_port(u16 pair) {
  std::vector<u16>& freelist = free_by_pair_[pair];
  while (freelist.empty()) {
    if (carve_port_ >= kPortBandEnd) {
      VFPGA_UNREACHABLE("flowgen: live flows exhausted the client IP's "
                        "source-port band (lower flows or first_port)");
    }
    carve_port();
  }
  const u16 port = freelist.back();
  freelist.pop_back();
  ++live_ports_;
  return port;
}

void FlowGen::release_port(u16 pair, u16 port) {
  VFPGA_ASSERT(live_ports_ > 0);
  free_by_pair_[pair].push_back(port);
  --live_ports_;
}

u32 FlowGen::sample_size() {
  return static_cast<u32>(sample_flow_size_packets(rng_, config_));
}

void FlowGen::open_slot(u32 slot, u16 port) {
  VFPGA_EXPECTS((flags_[slot] & kOpen) == 0);
  ids_[slot] = next_id_++;
  ports_[slot] = port;
  remaining_[slot] = sample_size();
  flags_[slot] = kOpen;
  ++created_;
  ++open_;
}

void FlowGen::release_slot(u32 slot) {
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0);
  release_port(pair_for_slot(slot), ports_[slot]);
  flags_[slot] = 0;
  --open_;
}

sim::Duration FlowGen::sample_gap(u32 slot) {
  double mean = config_.mean_gap_us;
  if (config_.arrivals == ArrivalProcess::kMmpp2) {
    if ((flags_[slot] & kBurst) != 0) {
      mean /= config_.mmpp_burst_factor;
    }
    // Geometric holding time in packets: flip with p = 1/mean_packets.
    if (sim::sample_bernoulli(rng_,
                              1.0 / config_.mmpp_mean_state_packets)) {
      flags_[slot] ^= kBurst;
    }
  }
  return sim::from_nanos(sim::sample_exponential(rng_, mean * 1e3));
}

FlowGen::Departure FlowGen::next_packet(u32 slot) {
  VFPGA_EXPECTS(slot < slots());
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0 && remaining_[slot] > 0);
  Departure d;
  d.flow_id = ids_[slot];
  d.pair = pair_for_slot(slot);
  d.payload_bytes =
      config_.payload_min +
      static_cast<u32>(rng_.uniform_below(config_.payload_max -
                                          config_.payload_min + 1));
  d.gap = sample_gap(slot);
  --remaining_[slot];
  d.fin = remaining_[slot] == 0;
  return d;
}

sim::Duration FlowGen::churn_slot(u32 slot) {
  VFPGA_EXPECTS(slot < slots());
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0 && remaining_[slot] == 0);
  const u16 pair = pair_for_slot(slot);
  release_slot(slot);
  ++completed_;
  open_slot(slot, allocate_port(pair));
  // Replacement flow's arrival: one exponential flow-interarrival gap.
  return sim::from_nanos(
      sim::sample_exponential(rng_, config_.mean_gap_us * 1e3));
}

void FlowGen::close_slot(u32 slot) {
  release_slot(slot);
  ++abandoned_;
}

}  // namespace vfpga::net
