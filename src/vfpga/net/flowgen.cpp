#include "vfpga/net/flowgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vfpga/common/contract.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/sim/distributions.hpp"

namespace vfpga::net {

namespace {

/// Keep the carve cursor inside a sane allocation band: [first_port,
/// kPortBandEnd) per client IP. Released tuples re-enter circulation
/// through the freelists, so the cursor itself never has to wrap.
constexpr u32 kPortBandEnd = 64'000;

}  // namespace

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
  VFPGA_EXPECTS(config_.pairs >= 1 && config_.pairs <= 256);
  VFPGA_EXPECTS(config_.host_ip_count >= 1);
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
  steer_.resize(config_.host_ip_count);
  carve_port_ = config_.first_port;

  ids_.resize(config_.flows);
  remaining_.resize(config_.flows);
  ports_.resize(config_.flows);
  ip_index_.resize(config_.flows);
  flags_.assign(config_.flows, 0);
  for (u32 slot = 0; slot < config_.flows; ++slot) {
    open_slot(slot, allocate_tuple(pair_for_slot(slot)));
  }
}

FlowGen::Flow FlowGen::flow(u32 slot) const {
  VFPGA_EXPECTS(slot < slots());
  Flow view;
  view.id = ids_[slot];
  view.src_ip = client_ip(ip_index_[slot]);
  view.src_port = ports_[slot];
  view.pair = pair_for_slot(slot);
  view.remaining_packets = remaining_[slot];
  view.burst = (flags_[slot] & kBurst) != 0;
  view.open = (flags_[slot] & kOpen) != 0;
  return view;
}

u16 FlowGen::pair_for_slot(u32 slot) const {
  if (config_.pair_set.empty()) {
    return static_cast<u16>(slot % config_.pairs);
  }
  return config_.pair_set[slot % config_.pair_set.size()];
}

u16 FlowGen::steer_pair(u32 ip_index, u16 port) {
  std::vector<u8>& table = steer_[ip_index];
  if (table.empty()) {
    // Lazy RSS: hash the whole port band once per IP the cursor enters,
    // instead of a Toeplitz hash per allocation probe. IPs the carve
    // never reaches cost nothing.
    table.resize(65'536);
    const Ipv4Addr ip = client_ip(ip_index);
    for (u32 p = config_.first_port; p < kPortBandEnd; ++p) {
      table[p] = static_cast<u8>(
          steer(rss_flow_hash(ip, static_cast<u16>(p), config_.fpga_ip,
                              config_.fpga_port),
                config_.pairs));
    }
  }
  return table[port];
}

void FlowGen::carve_tuple() {
  VFPGA_EXPECTS(carve_ip_ < config_.host_ip_count);
  const u16 port = static_cast<u16>(carve_port_);
  const u16 pair = steer_pair(carve_ip_, port);
  if (pair_active_[pair] != 0) {
    free_by_pair_[pair].push_back((carve_ip_ << 16) | port);
  }
  if (++carve_port_ >= kPortBandEnd) {
    carve_port_ = config_.first_port;
    ++carve_ip_;
  }
}

u32 FlowGen::allocate_tuple(u16 pair) {
  std::vector<u32>& freelist = free_by_pair_[pair];
  while (freelist.empty()) {
    if (carve_ip_ >= config_.host_ip_count) {
      VFPGA_UNREACHABLE("flowgen: 4-tuple space exhausted by live flows "
                        "(raise host_ip_count)");
    }
    carve_tuple();
  }
  const u32 tuple = freelist.back();
  freelist.pop_back();
  ++live_tuples_;
  return tuple;
}

void FlowGen::release_tuple(u16 pair, u32 tuple) {
  VFPGA_ASSERT(live_tuples_ > 0);
  free_by_pair_[pair].push_back(tuple);
  --live_tuples_;
}

u32 FlowGen::sample_size() {
  return static_cast<u32>(sample_flow_size_packets(rng_, config_));
}

void FlowGen::open_slot(u32 slot, u32 tuple) {
  VFPGA_EXPECTS((flags_[slot] & kOpen) == 0);
  ids_[slot] = next_id_++;
  ports_[slot] = static_cast<u16>(tuple & 0xffff);
  ip_index_[slot] = static_cast<u16>(tuple >> 16);
  remaining_[slot] = sample_size();
  flags_[slot] = kOpen;
  ++created_;
  ++open_;
}

void FlowGen::release_slot(u32 slot) {
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0);
  release_tuple(pair_for_slot(slot),
                (static_cast<u32>(ip_index_[slot]) << 16) | ports_[slot]);
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
  ++packets_;
  return d;
}

std::optional<sim::Duration> FlowGen::churn_slot(u32 slot) {
  VFPGA_EXPECTS(slot < slots());
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0 && remaining_[slot] == 0);
  const u16 pair = pair_for_slot(slot);
  release_slot(slot);
  ++completed_;
  if (!config_.churn) {
    return std::nullopt;
  }
  open_slot(slot, allocate_tuple(pair));
  // Replacement flow's arrival: one exponential flow-interarrival gap.
  return sim::from_nanos(
      sim::sample_exponential(rng_, config_.mean_gap_us * 1e3));
}

void FlowGen::close_slot(u32 slot) {
  release_slot(slot);
  ++abandoned_;
}

void FlowGen::reconnect_slot(u32 slot) {
  VFPGA_EXPECTS(slot < slots());
  VFPGA_EXPECTS((flags_[slot] & kOpen) != 0);
  // Same 4-tuple, so the tuple never visits the freelist: the old
  // connection completes (by reset) and a fresh flow takes over the
  // slot in place. RSS affinity is preserved by construction.
  ++completed_;
  ids_[slot] = next_id_++;
  remaining_[slot] = sample_size();
  flags_[slot] = kOpen;  // clears the MMPP burst state, like a new flow
  ++created_;
}

u64 FlowGen::footprint_bytes() const {
  u64 bytes = 0;
  bytes += ids_.capacity() * sizeof(u64);
  bytes += remaining_.capacity() * sizeof(u32);
  bytes += ports_.capacity() * sizeof(u16);
  bytes += ip_index_.capacity() * sizeof(u16);
  bytes += flags_.capacity() * sizeof(u8);
  for (const std::vector<u8>& table : steer_) {
    bytes += table.capacity() * sizeof(u8);
  }
  for (const std::vector<u32>& freelist : free_by_pair_) {
    bytes += freelist.capacity() * sizeof(u32);
  }
  bytes += pair_active_.capacity() * sizeof(u8);
  return bytes;
}

}  // namespace vfpga::net
