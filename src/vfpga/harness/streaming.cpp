#include "vfpga/harness/streaming.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"

namespace vfpga::harness {

const char* stream_mode_name(StreamMode mode) {
  switch (mode) {
    case StreamMode::kCopy:
      return "copy";
    case StreamMode::kChained:
      return "chained";
    case StreamMode::kIndirect:
      return "indirect";
    case StreamMode::kMergeable:
      return "mergeable";
    case StreamMode::kSegmentedSw:
      return "seg-sw";
    case StreamMode::kOffload:
      return "tso";
  }
  return "?";
}

namespace {

/// The testbed for one (mode, ring, payload) cell.
core::TestbedOptions cell_options(const StreamingConfig& config,
                                  StreamMode mode, bool packed, u64 payload) {
  core::TestbedOptions opts;
  // Paired seeds: every mode sees the same noise/jitter stream for a
  // given (ring, payload) cell, so mode deltas are datapath, not luck.
  opts.seed =
      config.seed ^ (payload * 0x9e3779b9ull) ^ (packed ? 0x517cull : 0);
  opts.use_packed_rings = packed;
  opts.net.mtu = config.mtu;
  switch (mode) {
    case StreamMode::kCopy:
      opts.datapath.tx_path = hostos::VirtioNetDriver::TxPath::kBounceCopy;
      opts.datapath.charge_tx_copy = true;
      break;
    case StreamMode::kChained:
      opts.datapath.tx_path = hostos::VirtioNetDriver::TxPath::kScatterGather;
      break;
    case StreamMode::kIndirect:
      opts.datapath.tx_path =
          hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
      break;
    case StreamMode::kMergeable:
      opts.datapath.tx_path =
          hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
      opts.datapath.want_mrg_rxbuf = true;
      opts.datapath.mrg_buffer_bytes = config.mrg_buffer_bytes;
      break;
    case StreamMode::kSegmentedSw:
    case StreamMode::kOffload:
      // Both segmentation cells run at the wire MTU: the datagram no
      // longer fits one frame and SOMETHING must slice it — the host's
      // software GSO loop or the device's HOST_UFO engine. Identical
      // ring shape (indirect sg, single-buffer RX) so the delta is the
      // offload alone; the tso cell's GUEST_UFO switches the RX pool to
      // "big packets" buffers sized for the coalesced superframe.
      opts.net.mtu = config.wire_mtu;
      opts.datapath.tx_path =
          hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
      opts.datapath.want_offload = mode == StreamMode::kOffload;
      break;
  }
  return opts;
}

/// One round trip: send `pattern` as two uneven fragments, receive
/// `datagrams` echoed datagrams into `rx_buf` and check the bytes.
/// Returns the round-trip time, or nullopt when the echo failed.
std::optional<sim::Duration> echo_once(core::VirtioNetTestbed& bed,
                                       bool zerocopy, u64 datagrams,
                                       Bytes& pattern, Bytes& rx_buf) {
  hostos::HostThread& t = bed.thread();
  hostos::UdpSocket& socket = bed.socket();
  t.exec(bed.options().costs.app_iteration);
  ++pattern[0];  // vary the payload so stale echoes cannot pass

  // An uneven iovec exercises the gather path (two user fragments per
  // datagram); the copy mode sends the same fragments without
  // MSG_ZEROCOPY.
  const u64 payload = pattern.size();
  const u64 split = std::min(std::max<u64>(payload / 3, 1), payload);
  const std::array<ConstByteSpan, 2> iov = {
      ConstByteSpan{pattern.data(), split},
      ConstByteSpan{pattern.data() + split, payload - split}};
  const sim::SimTime start = t.now();
  if (!socket.sendmsg(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                      std::span{iov.data(), iov.size()},
                      /*more_coming=*/false, zerocopy)) {
    return std::nullopt;
  }
  bool ok;
  if (datagrams == 1) {
    std::array<ByteSpan, 2> rx_iov = {
        ByteSpan{rx_buf.data(), rx_buf.size() / 2},
        ByteSpan{rx_buf.data() + rx_buf.size() / 2,
                 rx_buf.size() - rx_buf.size() / 2}};
    const auto msg = socket.recvmsg(t, std::span{rx_iov.data(), rx_iov.size()});
    ok = msg.has_value() && msg->datagram_bytes == payload &&
         msg->bytes == payload;
  } else {
    // Reassemble the echoed segment train: the flow is FIFO on one
    // queue, so the slices arrive in transmit order.
    u64 received = 0;
    ok = true;
    for (u64 d = 0; d < datagrams && ok; ++d) {
      std::array<ByteSpan, 1> rx_iov = {
          ByteSpan{rx_buf.data() + received, rx_buf.size() - received}};
      const auto msg =
          socket.recvmsg(t, std::span{rx_iov.data(), rx_iov.size()});
      ok = msg.has_value() && msg->bytes == msg->datagram_bytes &&
           msg->bytes > 0;
      if (ok) {
        received += msg->bytes;
      }
    }
    ok = ok && received == payload;
  }
  const sim::Duration rtt = t.now() - start;
  ok = ok && std::equal(pattern.begin(), pattern.end(), rx_buf.begin());
  if (!ok) {
    return std::nullopt;
  }
  return rtt;
}

}  // namespace

StreamingCellResult run_streaming_cell(const StreamingConfig& config,
                                       StreamMode mode, bool packed,
                                       u64 payload) {
  StreamingCellResult result;
  result.mode = mode;
  result.packed = packed;
  result.payload = payload;

  core::VirtioNetTestbed bed{cell_options(config, mode, packed, payload)};
  hostos::HostThread& t = bed.thread();
  hostos::UdpSocket& socket = bed.socket();
  socket.set_rx_mode(hostos::RxMode::kBusyPoll);
  socket.set_busy_poll_budget(sim::microseconds(4000));
  result.mergeable_negotiated = bed.driver().mergeable_rx_active();
  result.tso_negotiated = bed.driver().tso_active();

  // Datagrams per round trip: one everywhere except software GSO, where
  // an over-MTU send goes out — and comes back — as a train of
  // independent wire-MTU datagrams the application must reassemble.
  // (The tso cell's train is GRO-coalesced by the device, so the
  // application still sees a single datagram.)
  const u64 seg_payload = static_cast<u64>(bed.driver().mtu()) - 28;
  const u64 datagrams =
      (mode == StreamMode::kSegmentedSw && payload > seg_payload)
          ? (payload + seg_payload - 1) / seg_payload
          : 1;

  Bytes pattern(payload);
  for (u64 i = 0; i < payload; ++i) {
    pattern[i] = static_cast<u8>(i * 131 + 17);
  }
  Bytes rx_buf(payload + 64);
  sim::SimTime window_start = t.now();
  u64 measured_bytes = 0;
  for (u64 iter = 0; iter < config.warmup + config.iterations; ++iter) {
    if (iter == config.warmup) {
      window_start = t.now();
    }
    const std::optional<sim::Duration> rtt =
        echo_once(bed, mode != StreamMode::kCopy, datagrams, pattern, rx_buf);
    if (!rtt.has_value()) {
      ++result.failures;
      continue;
    }
    if (iter >= config.warmup) {
      result.rtt_us.add(*rtt);
      measured_bytes += 2 * payload;
    }
  }

  const double elapsed_ns = (t.now() - window_start).micros() * 1000.0;
  if (elapsed_ns > 0.0) {
    result.gbps = static_cast<double>(measured_bytes) * 8.0 / elapsed_ns;
  }
  result.tx_sg_segments = bed.driver().tx_sg_segments();
  result.rx_merged_frames = bed.driver().rx_merged_frames();
  result.tx_superframes = bed.stack().tx_superframes();
  result.sw_gso_segments = bed.stack().sw_gso_segments();
  result.gro_coalesced = bed.net_logic().gro_coalesced();
  result.rx_gro_frames = bed.driver().rx_gro_frames();
  return result;
}

StreamingSweepResult run_streaming_sweep(const StreamingConfig& config) {
  // Cells in canonical order: packed-major, then payload, then the six
  // modes in enum order — the order the bench prints. Each task writes
  // only its own slot.
  constexpr std::array<StreamMode, 6> kModes = {
      StreamMode::kCopy,        StreamMode::kChained,
      StreamMode::kIndirect,    StreamMode::kMergeable,
      StreamMode::kSegmentedSw, StreamMode::kOffload};
  StreamingSweepResult result;
  result.cells.resize(2 * config.payloads.size() * kModes.size());
  std::vector<std::function<void()>> tasks;
  for (const bool packed : {false, true}) {
    for (const u64 payload : config.payloads) {
      for (const StreamMode mode : kModes) {
        tasks.emplace_back([&, slot = tasks.size(), mode, packed, payload] {
          result.cells[slot] =
              run_streaming_cell(config, mode, packed, payload);
        });
      }
    }
  }
  VFPGA_EXPECTS(!tasks.empty());
  const unsigned threads = worker_threads(tasks.size(), config.threads);
  run_parallel(std::move(tasks), threads);
  return result;
}

}  // namespace vfpga::harness
