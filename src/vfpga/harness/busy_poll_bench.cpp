#include "vfpga/harness/busy_poll_bench.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

KickCoalescingResult run_kick_coalescing(const MultiFlowConfig& config,
                                         u32 burst, bool packed_ring) {
  VFPGA_EXPECTS(burst >= 1);
  KickCoalescingResult result;
  result.burst = burst;
  result.packed_ring = packed_ring;

  core::TestbedOptions options = config.testbed;
  options.seed =
      sim::derive_seed(config.seed, 0x9000 + burst * 2 + (packed_ring ? 1 : 0));
  options.use_packed_rings = packed_ring;  // testbed sets offer_packed
  core::VirtioNetTestbed bed(options);
  VFPGA_ASSERT(bed.driver().using_packed_rings() == packed_ring);

  bed.driver().set_kick_coalesce(burst);
  bed.socket().set_rx_mode(hostos::RxMode::kBusyPoll);
  bed.socket().set_busy_poll_budget(config.poll_budget);

  hostos::HostThread& t = bed.thread();
  Bytes payload(std::max<u64>(config.payload_bytes, 16), 0xc5);
  const u64 iterations = std::max<u64>(config.packets_per_flow / 4, 8);
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
