// Large-payload streaming workload over the zero-copy datapath.
//
// Sweeps jumbo UDP payloads (1 KB..60 KB) through the echo testbed in
// six TX/RX shapes — the legacy bounce-copy path, the zero-copy
// scatter-gather paths (chained descriptors, one-slot indirect tables,
// indirect + mergeable RX buffers), and two wire-MTU segmentation cells
// (software GSO vs the HOST_UFO/GUEST_UFO device offload) — on both
// ring formats. Each cell reports goodput (Gb/s, both directions) and
// the round-trip latency distribution; the bench gates on the expected
// orderings indirect >= chained >= copy and tso >= seg-sw at 4 KB and
// above, plus tso >= indirect from 16 KB.
#pragma once

#include <vector>

#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

/// The datapath shapes the streaming sweep compares.
enum class StreamMode : u8 {
  kCopy,       ///< bounce-copy TX (copy charged), single-buffer RX
  kChained,    ///< zero-copy sg TX as a chained descriptor list
  kIndirect,   ///< zero-copy sg TX via one-slot indirect tables
  kMergeable,  ///< indirect TX + mergeable RX buffer spans
  /// Wire-MTU software GSO: the host slices every over-MTU datagram
  /// into MTU-sized wire frames (per-segment header/checksum work on
  /// the CPU) and the application reassembles the echoed train.
  kSegmentedSw,
  /// Wire-MTU device offload: HOST_UFO superframe TX (the device's GSO
  /// engine segments on the fabric) + GUEST_UFO GRO RX (the echoed
  /// train returns as one coalesced superframe with DATA_VALID).
  kOffload,
};

[[nodiscard]] const char* stream_mode_name(StreamMode mode);

struct StreamingConfig {
  /// Measured round trips per cell (VFPGA_ITERATIONS overrides).
  u64 iterations = 400;
  u64 warmup = 8;
  u64 seed = 2024;
  /// Jumbo payload sweep; the top size approaches the IPv4 limit.
  std::vector<u64> payloads = {1024, 4096, 16384, 61440};
  /// Device MTU for the jumbo testbed (frame capacity derives from it).
  u16 mtu = 63000;
  /// Wire MTU for the segmentation-offload cells: seg-sw and tso run at
  /// the paper's 1500 instead of lifting the MTU out of the way.
  u16 wire_mtu = 1500;
  /// Per-RX-buffer size in the mergeable cell.
  u32 mrg_buffer_bytes = 4096;
  /// Worker threads for run_streaming_sweep's cells; 0 =
  /// worker_threads(). VFPGA_THREADS still overrides (env > this > hw).
  unsigned threads = 0;
};

struct StreamingCellResult {
  StreamMode mode = StreamMode::kCopy;
  bool packed = false;
  u64 payload = 0;
  /// Application goodput over the measured window, counting payload
  /// bytes in both directions.
  double gbps = 0.0;
  stats::SampleSet rtt_us;
  u64 failures = 0;
  u64 tx_sg_segments = 0;
  u64 rx_merged_frames = 0;
  bool mergeable_negotiated = false;
  bool tso_negotiated = false;
  /// GSO superframes the stack handed the device / wire frames the
  /// software fallback produced on the host.
  u64 tx_superframes = 0;
  u64 sw_gso_segments = 0;
  /// Device-side: segment trains the GRO engine coalesced back; driver
  /// side: superframes that arrived with GSO metadata on RX.
  u64 gro_coalesced = 0;
  u64 rx_gro_frames = 0;
};

/// Run one (mode, ring format, payload) streaming cell on a fresh
/// jumbo-MTU testbed.
StreamingCellResult run_streaming_cell(const StreamingConfig& config,
                                       StreamMode mode, bool packed,
                                       u64 payload);

struct StreamingSweepResult {
  /// Every (packed, payload, mode) cell in canonical sweep order:
  /// packed-major ({split, packed}), then payload, then the six modes
  /// in enum order. Each cell's numbers are identical to a standalone
  /// run_streaming_cell call.
  std::vector<StreamingCellResult> cells;
};

/// Run the full sweep, one run_streaming_cell per cell on the worker
/// pool (harness::run_parallel). Cells share nothing, so the result is
/// bit-identical at any thread count.
StreamingSweepResult run_streaming_sweep(const StreamingConfig& config);

}  // namespace vfpga::harness
