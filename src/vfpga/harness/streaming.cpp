#include "vfpga/harness/streaming.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/sim/event_lane.hpp"

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

/// One (mode, ring, payload) streaming cell as a resumable state
/// machine, mirroring blk_bench's CellRun: the lane sweep advances a
/// cell one round-trip batch per scheduler event; run_streaming_cell
/// drives the same machine to completion in a loop. Batch boundaries
/// never touch the testbed clock, so both paths compute identical
/// numbers.
class StreamCellRun {
 public:
  StreamCellRun(const StreamingConfig& config, StreamMode mode, bool packed,
                u64 payload)
      : config_(config), mode_(mode), packed_(packed), payload_(payload) {
    result_.mode = mode;
    result_.packed = packed;
    result_.payload = payload;
  }

  /// Build the testbed (the expensive part — lanes call this inside an
  /// event, so construction runs in the parallel phase).
  void start() {
    core::TestbedOptions opts;
    // Paired seeds: every mode sees the same noise/jitter stream for a
    // given (ring, payload) cell, so mode deltas are datapath, not luck.
    opts.seed =
        config_.seed ^ (payload_ * 0x9e3779b9ull) ^ (packed_ ? 0x517cull : 0);
    opts.use_packed_rings = packed_;
    opts.net.mtu = config_.mtu;
    switch (mode_) {
      case StreamMode::kCopy:
        opts.datapath.tx_path = hostos::VirtioNetDriver::TxPath::kBounceCopy;
        opts.datapath.charge_tx_copy = true;
        break;
      case StreamMode::kChained:
        opts.datapath.tx_path =
            hostos::VirtioNetDriver::TxPath::kScatterGather;
        break;
      case StreamMode::kIndirect:
        opts.datapath.tx_path =
            hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
        break;
      case StreamMode::kMergeable:
        opts.datapath.tx_path =
            hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
        opts.datapath.want_mrg_rxbuf = true;
        opts.datapath.mrg_buffer_bytes = config_.mrg_buffer_bytes;
        break;
      case StreamMode::kSegmentedSw:
      case StreamMode::kOffload:
        // Both segmentation cells run at the wire MTU: the datagram no
        // longer fits one frame and SOMETHING must slice it — the
        // host's software GSO loop or the device's HOST_UFO engine.
        // Identical ring shape (indirect sg, single-buffer RX) so the
        // delta is the offload alone; the tso cell's GUEST_UFO switches
        // the RX pool to "big packets" buffers sized for the coalesced
        // superframe.
        opts.net.mtu = config_.wire_mtu;
        opts.datapath.tx_path =
            hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
        opts.datapath.want_offload = mode_ == StreamMode::kOffload;
        break;
    }
    bed_ = std::make_unique<core::VirtioNetTestbed>(opts);
    hostos::UdpSocket& socket = bed_->socket();
    socket.set_rx_mode(hostos::RxMode::kBusyPoll);
    socket.set_busy_poll_budget(sim::microseconds(4000));

    result_.mergeable_negotiated = bed_->driver().mergeable_rx_active();
    result_.tso_negotiated = bed_->driver().tso_active();

    // Datagrams per round trip: one everywhere except software GSO,
    // where an over-MTU send goes out — and comes back — as a train of
    // independent wire-MTU datagrams the application must reassemble.
    // (The tso cell's train is GRO-coalesced by the device, so the
    // application still sees a single datagram.)
    const u64 seg_payload = static_cast<u64>(bed_->driver().mtu()) - 28;
    expected_datagrams_ =
        (mode_ == StreamMode::kSegmentedSw && payload_ > seg_payload)
            ? (payload_ + seg_payload - 1) / seg_payload
            : 1;

    pattern_.resize(payload_);
    for (u64 i = 0; i < payload_; ++i) {
      pattern_[i] = static_cast<u8>(i * 131 + 17);
    }
    rx_buf_.resize(payload_ + 64);
    total_ = config_.warmup + config_.iterations;
    cell_start_ = bed_->thread().now();
    window_start_ = cell_start_;
  }

  /// Advance one batch of round trips. Returns true when the cell is
  /// done (the result is finalized and the testbed released).
  bool step() {
    // Coarse enough to amortize lane-event overhead, fine enough that
    // lanes re-synchronize while cells of very different payloads run
    // side by side.
    constexpr u64 kBatch = 16;
    const u64 stop = std::min(iter_ + kBatch, total_);
    for (; iter_ < stop; ++iter_) {
      echo_once();
    }
    if (iter_ < total_) {
      return false;
    }
    finalize();
    return true;
  }

  [[nodiscard]] StreamingCellResult& result() { return result_; }
  /// Simulated time the cell has consumed so far (for lane pacing).
  [[nodiscard]] sim::Duration elapsed() const {
    return bed_ != nullptr ? bed_->thread().now() - cell_start_
                           : sim::Duration{};
  }

 private:
  void echo_once() {
    hostos::HostThread& t = bed_->thread();
    hostos::UdpSocket& socket = bed_->socket();
    if (iter_ == config_.warmup) {
      window_start_ = t.now();
    }
    t.exec(bed_->options().costs.app_iteration);
    ++pattern_[0];  // vary the payload so stale echoes cannot pass

    // An uneven iovec exercises the gather path (two user fragments per
    // datagram); the copy mode sends the same fragments without
    // MSG_ZEROCOPY.
    const u64 split = std::max<u64>(payload_ / 3, 1);
    const bool zerocopy = mode_ != StreamMode::kCopy;
    const std::array<ConstByteSpan, 2> iov = {
        ConstByteSpan{pattern_.data(), std::min(split, payload_)},
        ConstByteSpan{pattern_.data() + std::min(split, payload_),
                      payload_ - std::min(split, payload_)}};
    const sim::SimTime start = t.now();
    if (!socket.sendmsg(t, bed_->fpga_ip(), bed_->options().fpga_udp_port,
                        std::span{iov.data(), iov.size()},
                        /*more_coming=*/false, zerocopy)) {
      ++result_.failures;
      return;
    }
    bool ok;
    if (expected_datagrams_ == 1) {
      std::array<ByteSpan, 2> rx_iov = {
          ByteSpan{rx_buf_.data(), rx_buf_.size() / 2},
          ByteSpan{rx_buf_.data() + rx_buf_.size() / 2,
                   rx_buf_.size() - rx_buf_.size() / 2}};
      const auto msg =
          socket.recvmsg(t, std::span{rx_iov.data(), rx_iov.size()});
      ok = msg.has_value() && msg->datagram_bytes == payload_ &&
           msg->bytes == payload_;
    } else {
      // Reassemble the echoed segment train: the flow is FIFO on one
      // queue, so the slices arrive in transmit order.
      u64 received = 0;
      ok = true;
      for (u64 d = 0; d < expected_datagrams_ && ok; ++d) {
        std::array<ByteSpan, 1> rx_iov = {
            ByteSpan{rx_buf_.data() + received, rx_buf_.size() - received}};
        const auto msg =
            socket.recvmsg(t, std::span{rx_iov.data(), rx_iov.size()});
        ok = msg.has_value() && msg->bytes == msg->datagram_bytes &&
             msg->bytes > 0;
        if (ok) {
          received += msg->bytes;
        }
      }
      ok = ok && received == payload_;
    }
    const sim::Duration rtt = t.now() - start;
    ok = ok && std::equal(pattern_.begin(), pattern_.end(), rx_buf_.begin());
    if (!ok) {
      ++result_.failures;
      return;
    }
    if (iter_ >= config_.warmup) {
      result_.rtt_us.add(rtt);
      measured_bytes_ += 2 * payload_;
    }
  }

  void finalize() {
    const sim::Duration elapsed = bed_->thread().now() - window_start_;
    const double elapsed_ns = elapsed.micros() * 1000.0;
    if (elapsed_ns > 0.0) {
      result_.gbps = static_cast<double>(measured_bytes_) * 8.0 / elapsed_ns;
    }
    result_.tx_sg_segments = bed_->driver().tx_sg_segments();
    result_.rx_merged_frames = bed_->driver().rx_merged_frames();
    result_.tx_superframes = bed_->stack().tx_superframes();
    result_.sw_gso_segments = bed_->stack().sw_gso_segments();
    result_.gro_coalesced = bed_->net_logic().gro_coalesced();
    result_.rx_gro_frames = bed_->driver().rx_gro_frames();
    bed_.reset();
  }

  const StreamingConfig& config_;
  StreamMode mode_;
  bool packed_;
  u64 payload_;
  StreamingCellResult result_;
  std::unique_ptr<core::VirtioNetTestbed> bed_;
  Bytes pattern_;
  Bytes rx_buf_;
  u64 expected_datagrams_ = 1;
  u64 total_ = 0;
  u64 iter_ = 0;
  u64 measured_bytes_ = 0;
  sim::SimTime window_start_{};
  sim::SimTime cell_start_{};
};

}  // namespace

StreamingCellResult run_streaming_cell(const StreamingConfig& config,
                                       StreamMode mode, bool packed,
                                       u64 payload) {
  StreamCellRun run(config, mode, packed, payload);
  run.start();
  while (!run.step()) {
  }
  return std::move(run.result());
}

StreamingSweepResult run_streaming_sweep(const StreamingConfig& config) {
  // Cells in canonical order: packed-major, then payload, then the six
  // modes in enum order — the order the bench prints.
  constexpr std::array<StreamMode, 6> kModes = {
      StreamMode::kCopy,        StreamMode::kChained,
      StreamMode::kIndirect,    StreamMode::kMergeable,
      StreamMode::kSegmentedSw, StreamMode::kOffload};
  std::vector<std::unique_ptr<StreamCellRun>> runs;
  for (const bool packed : {false, true}) {
    for (const u64 payload : config.payloads) {
      for (const StreamMode mode : kModes) {
        runs.push_back(
            std::make_unique<StreamCellRun>(config, mode, packed, payload));
      }
    }
  }
  VFPGA_EXPECTS(!runs.empty());

  // Fixed lane count independent of the worker pool, exactly as in
  // run_blk_sweep: lane assignment must not depend on the host.
  constexpr std::size_t kSweepLanes = 8;
  const u32 lanes =
      static_cast<u32>(std::min<std::size_t>(kSweepLanes, runs.size()));

  sim::LaneSetConfig lc;
  lc.lanes = lanes;
  lc.window = sim::microseconds(100);
  lc.adaptive.enabled = true;
  lc.adaptive.min_window = sim::microseconds(25);
  lc.adaptive.max_window = sim::milliseconds(10);
  sim::LaneSet set{lc};

  std::vector<std::vector<std::size_t>> queues(lanes);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    queues[i % lanes].push_back(i);
  }
  u32 cells_aggregated = 0;
  struct Advance {
    sim::LaneSet& set;
    std::vector<std::unique_ptr<StreamCellRun>>& runs;
    std::vector<std::vector<std::size_t>>& queues;
    std::vector<u8>& started;
    u32* aggregated;

    void operator()(u32 lane, std::size_t qi) const {
      StreamCellRun& run = *runs[queues[lane][qi]];
      sim::Scheduler& sched = set.lane(lane).scheduler();
      if (started[queues[lane][qi]] == 0) {
        started[queues[lane][qi]] = 1;
        run.start();
        sched.schedule_after(sim::nanoseconds(1),
                             [copy = *this, lane, qi] { copy(lane, qi); });
        return;
      }
      const sim::Duration before = run.elapsed();
      if (!run.step()) {
        const sim::Duration spent = run.elapsed() - before;
        sched.schedule_after(std::max(spent, sim::nanoseconds(1)),
                             [copy = *this, lane, qi] { copy(lane, qi); });
        return;
      }
      set.post(lane, 0, set.horizon(), [a = aggregated] { ++*a; });
      if (qi + 1 < queues[lane].size()) {
        sched.schedule_after(sim::nanoseconds(1),
                             [copy = *this, lane, qi] { copy(lane, qi + 1); });
      }
    }
  };
  std::vector<u8> started(runs.size(), 0);
  Advance advance{set, runs, queues, started, &cells_aggregated};
  for (u32 l = 0; l < lanes; ++l) {
    if (queues[l].empty()) {
      continue;
    }
    set.lane(l).scheduler().schedule_at(sim::SimTime{} + sim::nanoseconds(1),
                                        [advance, l] { advance(l, 0); });
  }

  const sim::LaneSet::RunStats lane_stats =
      set.run(worker_threads(lanes, config.threads));
  VFPGA_ASSERT(lane_stats.dropped == 0);

  StreamingSweepResult result;
  result.lane_windows = lane_stats.windows;
  result.lane_window_growths = lane_stats.window_growths;
  result.lane_messages = lane_stats.messages;
  result.cells_aggregated = cells_aggregated;
  VFPGA_ASSERT(result.cells_aggregated == runs.size());
  result.cells.reserve(runs.size());
  for (auto& run : runs) {
    result.cells.push_back(std::move(run->result()));
  }
  return result;
}

}  // namespace vfpga::harness
