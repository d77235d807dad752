// Flow-table-driven traffic generation.
//
// The multi-flow harness hand-builds a handful of long-lived flows; the
// scale experiments need the opposite: tens of thousands to millions of
// concurrent UDP flows with realistic population dynamics. FlowGen is
// that population model —
//
//  * flow sizes are heavy-tailed (bounded Pareto over packets-per-flow:
//    most flows are mice, a fat tail of elephants carries most packets,
//    the canonical datacenter mix),
//  * per-flow packet arrivals are Poisson or a 2-state MMPP (a bursty
//    on/off modulation of the Poisson rate),
//  * connection churn: a finished flow's table slot is re-filled by a
//    fresh flow with a new 4-tuple, so the live-flow population stays at
//    the configured level while flow identities turn over continuously,
//  * every flow is pinned to a queue pair through the same Toeplitz RSS
//    steering the device uses (net/rss), so a generated flow's packets
//    really do land where the multi-queue data plane will process them.
//
// The table is built for the million-slot soak: state is struct-of-
// arrays (17 bytes/slot of per-flow state), 4-tuples come from per-pair
// index freelists fed by a single carve cursor over (client IP, port)
// space, and RSS steering is computed lazily — one cached steer table
// per client IP, built on the first carve that touches the IP, instead
// of a Toeplitz hash per allocation probe. One client IP bounds the
// live population by the source-port band (~44k flows); host_ip_count
// widens the tuple space for bigger populations. footprint_bytes()
// reports the actual allocated bytes so benches can gate a bytes/flow
// budget (DESIGN.md §15 documents 48 B/flow at a million slots).
//
// FlowGen is a deterministic state machine over its own RNG stream: the
// caller (one event lane, typically) drives it slot by slot, and the
// same seed and call sequence reproduce the same traffic bit for bit.
#pragma once

#include <optional>
#include <vector>

#include "vfpga/net/addr.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::net {

enum class ArrivalProcess : u8 {
  kPoisson,  ///< exponential per-flow inter-packet gaps
  kMmpp2,    ///< 2-state Markov-modulated Poisson (slow / burst)
};

struct FlowGenConfig {
  /// Endpoint identity: flows are (client ip, searched src port) ->
  /// (fpga_ip, fpga_port) UDP 4-tuples. Client IPs are host_ip ..
  /// host_ip + host_ip_count - 1; one IP caps the live population at
  /// the source-port band, so the million-flow soak spreads the table
  /// over dozens of IPs.
  Ipv4Addr host_ip{};
  u16 host_ip_count = 1;
  Ipv4Addr fpga_ip{};
  u16 fpga_port = 9000;

  /// Queue pairs in the global RSS space flows steer across.
  u16 pairs = 8;
  /// Only these pairs are populated (slot s -> pair_set[s % size]);
  /// empty = all pairs round-robin. This is how a sharded lane builds a
  /// generator restricted to the pairs it owns. Tuples carved for pairs
  /// outside the set are discarded, not stored.
  std::vector<u16> pair_set;

  /// Concurrent flow-table slots (the live-flow population).
  u32 flows = 1024;

  /// Heavy-tailed flow length, in packets: bounded Pareto.
  double size_shape = 1.25;
  u64 size_min_packets = 1;
  u64 size_max_packets = 4096;

  /// Payload bytes per packet, uniform in [min, max].
  u32 payload_min = 64;
  u32 payload_max = 1400;

  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  /// Mean per-flow inter-packet gap (slow state), microseconds.
  double mean_gap_us = 50.0;
  /// MMPP burst state: gap mean divided by this factor.
  double mmpp_burst_factor = 8.0;
  /// Mean packets between MMPP state flips (geometric holding time).
  double mmpp_mean_state_packets = 32.0;

  /// Refill a finished flow's slot with a fresh flow (new 4-tuple, same
  /// pair). Off = slots close when their flow completes.
  bool churn = true;

  /// Source-port carving starts here per client IP; released tuples are
  /// reused through the freelists before the cursor advances.
  u16 first_port = 20'000;

  u64 seed = 20'25;
};

/// Flow length in packets: bounded Pareto(shape) over
/// [size_min_packets, size_max_packets] by inverse CDF. Exposed so tests
/// can pin the distribution's quantiles per seed.
[[nodiscard]] u64 sample_flow_size_packets(sim::Xoshiro256& rng,
                                           const FlowGenConfig& config);

class FlowGen {
 public:
  /// Read-only view of one slot, assembled from the SoA columns.
  struct Flow {
    u64 id = 0;  ///< unique across churn generations
    Ipv4Addr src_ip{};
    u16 src_port = 0;
    u16 pair = 0;
    u64 remaining_packets = 0;
    bool burst = false;  ///< MMPP state
    bool open = false;
  };

  /// One packet departure from a slot's current flow.
  struct Departure {
    u64 flow_id = 0;
    u16 pair = 0;
    u32 payload_bytes = 0;
    /// Delay from the previous departure of this slot (or from open time
    /// for the first packet).
    sim::Duration gap{};
    /// Last packet of the flow: the caller must churn_slot() or
    /// close_slot() before asking for more traffic from this slot.
    bool fin = false;
  };

  explicit FlowGen(const FlowGenConfig& config);

  [[nodiscard]] u32 slots() const { return static_cast<u32>(ids_.size()); }
  [[nodiscard]] Flow flow(u32 slot) const;

  /// Next packet from the slot's open flow. Precondition: slot is open.
  [[nodiscard]] Departure next_packet(u32 slot);

  /// Retire a finished (remaining == 0) flow. With churn on, installs a
  /// fresh flow on the same pair and returns its arrival delay; with
  /// churn off, closes the slot and returns nullopt.
  std::optional<sim::Duration> churn_slot(u32 slot);

  /// Close an unfinished flow (the harness reached its packet quota).
  /// Counts as abandoned, not completed.
  void close_slot(u32 slot);

  /// Tear down and re-establish the slot's flow with the SAME 4-tuple
  /// (a reconnect). The flow gets a fresh id and size, but its source
  /// tuple — and therefore its RSS pair — is preserved.
  void reconnect_slot(u32 slot);

  // ---- bookkeeping (the churn-leak test audits these) ------------------------
  [[nodiscard]] u64 flows_created() const { return created_; }
  [[nodiscard]] u64 flows_completed() const { return completed_; }
  [[nodiscard]] u64 flows_abandoned() const { return abandoned_; }
  [[nodiscard]] u64 packets_emitted() const { return packets_; }
  /// Open flow-table entries; created == completed + abandoned + open
  /// always holds, or entries leaked.
  [[nodiscard]] u64 open_flows() const { return open_; }
  /// Live (ip, port) tuples held by open flows — must equal
  /// open_flows(), or tuple bookkeeping leaked.
  [[nodiscard]] u64 live_ports() const { return live_tuples_; }

  /// Bytes of flow-table state actually allocated: the SoA columns,
  /// every lazily built per-IP steer table, and the tuple freelists.
  /// The soak bench divides this by slots() to gate the bytes/flow
  /// budget.
  [[nodiscard]] u64 footprint_bytes() const;

 private:
  // flags_ bits.
  static constexpr u8 kOpen = 0x1;
  static constexpr u8 kBurst = 0x2;

  [[nodiscard]] u16 pair_for_slot(u32 slot) const;
  [[nodiscard]] Ipv4Addr client_ip(u32 ip_index) const {
    return Ipv4Addr{config_.host_ip.value + ip_index};
  }
  /// RSS pair of (client_ip(ip_index), port) — served from the IP's
  /// cached steer table, built on first touch.
  [[nodiscard]] u16 steer_pair(u32 ip_index, u16 port);
  /// Pop a tuple steering to `pair`, carving fresh (ip, port) space as
  /// needed. Packed as (ip_index << 16) | port.
  [[nodiscard]] u32 allocate_tuple(u16 pair);
  /// Classify the tuple under the carve cursor into its pair's freelist
  /// (or discard it if the pair is outside the population).
  void carve_tuple();
  void release_tuple(u16 pair, u32 tuple);
  /// Install a fresh flow in `slot` holding `tuple`.
  void open_slot(u32 slot, u32 tuple);
  void release_slot(u32 slot);
  [[nodiscard]] u32 sample_size();
  [[nodiscard]] sim::Duration sample_gap(u32 slot);

  FlowGenConfig config_;
  sim::Xoshiro256 rng_;

  // ---- per-slot state, struct of arrays (17 bytes per slot) ------------------
  std::vector<u64> ids_;
  std::vector<u32> remaining_;  ///< packets left (size_max fits u32)
  std::vector<u16> ports_;
  std::vector<u16> ip_index_;
  std::vector<u8> flags_;

  // ---- tuple allocator -------------------------------------------------------
  /// steer_[ip_index][port] -> pair; empty until the carve cursor first
  /// enters the IP. u8 entries (pairs <= 256 enforced for caching).
  std::vector<std::vector<u8>> steer_;
  /// Released / pre-carved tuples per pair, LIFO. Only pairs in the
  /// population (pair_set, or all pairs) ever hold entries.
  std::vector<std::vector<u32>> free_by_pair_;
  std::vector<u8> pair_active_;
  u32 carve_ip_ = 0;
  u32 carve_port_ = 0;
  u64 live_tuples_ = 0;

  u64 next_id_ = 1;
  u64 created_ = 0;
  u64 completed_ = 0;
  u64 abandoned_ = 0;
  u64 packets_ = 0;
  u64 open_ = 0;
};

}  // namespace vfpga::net
