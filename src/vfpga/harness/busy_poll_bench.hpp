// TX kick coalescing against EVENT_IDX, the second half of the
// busy-poll study (bench/busy_poll_modes; its RX-mode sweep runs on
// harness::run_multi_flow): bursts of MSG_MORE sends against the
// EVENT_IDX suppression machinery, counting doorbells per frame on split
// and packed rings.
#pragma once

#include "vfpga/harness/multi_flow.hpp"

namespace vfpga::harness {

/// TX kick coalescing against EVENT_IDX: send `burst` frames per
/// iteration under MSG_MORE, harvest the echoes in poll mode, count
/// doorbells.
struct KickCoalescingResult {
  u32 burst = 1;
  bool packed_ring = false;
  u64 frames_sent = 0;
  u64 echoes_received = 0;
  u64 tx_kicks = 0;            ///< doorbells actually rung
  u64 tx_kicks_coalesced = 0;  ///< publishes deferred under MSG_MORE
  u64 device_frames = 0;       ///< controller's frames_processed
  double doorbells_per_frame = 0;
};

/// Of `config` it uses the testbed, seed, payload size (at least 16 B),
/// poll budget, retry budget and packets_per_flow / 4 (at least 8)
/// burst iterations.
KickCoalescingResult run_kick_coalescing(const MultiFlowConfig& config,
                                         u32 burst, bool packed_ring);

}  // namespace vfpga::harness
