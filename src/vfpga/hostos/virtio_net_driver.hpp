// Host-kernel virtio-net front-end driver model.
//
// Binds to the FPGA exactly as Linux's virtio-pci-modern + virtio_net
// pair would: the VirtioPciTransport handles matching, capability
// walking, the status/feature handshake, MSI-X and virtqueue
// construction (split or packed per negotiation); this class contributes
// the network semantics — virtio_net_hdr framing, single-doorbell
// transmission (§IV-A), and NAPI-style reception where the RX interrupt
// triggers a poll that harvests used buffers and refills the ring. Like
// the paper's driver it runs one RX/TX queue pair (§III-B).
//
// Timing: probe-time costs are charged but irrelevant (not on the
// measured path); the xmit/poll entry points charge the calibrated
// cost-model segments against the HostThread they run on.
#pragma once

#include <deque>
#include <optional>

#include "vfpga/hostos/virtio_transport.hpp"
#include "vfpga/net/addr.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {

class VirtioNetDriver {
 public:
  using BindContext = VirtioPciTransport::BindContext;

  /// TX descriptor strategy.
  enum class TxPath : u8 {
    /// The paper's driver: memcpy the frame into a contiguous bounce
    /// buffer, post one descriptor. Default — exactly the legacy shape.
    kBounceCopy,
    /// Zero-copy: the header and the frame go out as two descriptors in
    /// a one-slot indirect table (VIRTIO_RING_F_INDIRECT_DESC), so the
    /// device fetches both in a single DMA read. No bounce memcpy; a
    /// per-segment DMA mapping is charged instead. Without the
    /// negotiated bit the two descriptors are chained in the ring.
    kScatterGatherIndirect,
  };

  /// Datapath configuration. Must be set before probe(). The default
  /// is the paper's driver.
  struct DatapathOptions {
    TxPath tx_path = TxPath::kBounceCopy;
  };
  void set_datapath(const DatapathOptions& options) { datapath_ = options; }
  [[nodiscard]] const DatapathOptions& datapath() const { return datapath_; }

  /// Largest Ethernet frame the TX and RX buffers hold: the 1526-byte
  /// frame area of the device's 1500-byte MTU.
  static constexpr u32 kFrameCapacity = 14 + virtio::net::kDeviceMtu + 12;

  /// Probe and initialize the device (§3.1.1 init sequence). `thread`
  /// pays the MMIO costs. Returns false when the device is not a
  /// virtio-net modern device or negotiation fails.
  bool probe(const BindContext& ctx, HostThread& thread);

  [[nodiscard]] bool bound() const { return transport_.bound(); }
  [[nodiscard]] virtio::FeatureSet negotiated() const {
    return transport_.negotiated();
  }
  [[nodiscard]] u32 rx_vector() const { return rx_vector_; }
  [[nodiscard]] u32 tx_vector() const { return tx_vector_; }
  [[nodiscard]] net::MacAddr mac() const { return mac_; }
  [[nodiscard]] u16 mtu() const { return mtu_; }
  [[nodiscard]] bool using_packed_rings() const {
    return transport_.using_packed_rings();
  }

  /// Transmit one Ethernet frame of at most kFrameCapacity bytes on the
  /// TX queue (virtio_net_hdr is prepended here, in the driver, as
  /// virtio-net does). `needs_csum`
  /// marks a frame whose L4 checksum was left for the device
  /// (VIRTIO_NET_F_CSUM negotiated); csum_start/csum_offset follow the
  /// UDP convention. `more_coming` is the xmit_more/MSG_MORE hint: the
  /// caller promises another frame (or an explicit flush_tx)
  /// immediately, so the driver may defer the avail publish and the
  /// doorbell to coalesce up to set_kick_coalesce() frames into one
  /// kick. Returns true when the device was kicked.
  bool xmit_frame(HostThread& thread, ConstByteSpan frame, bool needs_csum,
                  u16 csum_start = 0, u16 csum_offset = 0,
                  bool more_coming = false);

  /// Publish any coalesced-but-unpublished TX chains and ring the
  /// doorbell if the device asked for it (one EVENT_IDX decision for
  /// the whole batch). Returns true when the device was kicked.
  bool flush_tx(HostThread& thread);

  /// NAPI poll: harvest RX completions into the receive backlog and
  /// recycle TX completions; refill + re-enable interrupts. Returns the
  /// number of frames harvested.
  u32 napi_poll(HostThread& thread);

  /// Busy-poll tuning (Linux SO_BUSY_POLL / napi_busy_loop semantics in
  /// the modeled stack) and the adaptive spin-vs-sleep controller.
  struct BusyPollPolicy {
    /// Spin budget per busy_poll() call before falling back to
    /// interrupts (the SO_BUSY_POLL microseconds value).
    sim::Duration default_budget;
    /// EWMA smoothing for the observed data-arrival wait.
    double ewma_alpha;
    /// Adaptive mode spins when the predicted wait is at or
    /// below this (like adaptive IRQ coalescing thresholds). Sized to
    /// cover the device's round-trip spread (~8-20us on the modeled
    /// link): a budget-expiry observation (default_budget charged on a
    /// dry poll) still lands above it, so a queue whose traffic stops
    /// drifts back to sleeping within a few calls.
    sim::Duration spin_threshold;
    /// Hard cap on spin iterations per call: a pathological loop fails
    /// fast instead of hanging the simulation.
    u64 max_spin_iterations;
  };
  static constexpr BusyPollPolicy kBusyPollPolicy{
      .default_budget = sim::microseconds(50),
      .ewma_alpha = 0.25,
      .spin_threshold = sim::microseconds(25),
      .max_spin_iterations = 2'000'000};

  /// TX doorbell coalescing: frames batched per kick under the
  /// xmit_more hint. 1 = kick per frame (the interrupt path's shape).
  void set_kick_coalesce(u32 frames) { kick_coalesce_ = frames; }

  /// Poll-mode RX: flush any coalesced TX kicks, disarm the RX vector,
  /// and spin on the used ring — harvesting
  /// completions as their used-ring writes become visible — until
  /// nothing more can land within `budget` (zero = policy default).
  /// Re-arms interrupts on exit (hybrid fallback: a completion arriving
  /// after the budget expires raises the normal RX interrupt). Returns
  /// frames harvested into the backlog.
  u32 busy_poll(HostThread& thread, sim::Duration budget = sim::Duration{});

  /// Adaptive controller decision: spin (true) when the EWMA of
  /// recently observed waits predicts data within spin_threshold, sleep
  /// (false) otherwise.
  [[nodiscard]] bool should_busy_poll() const;

  /// Feed the adaptive EWMA with a wait observed outside busy_poll()
  /// (the interrupt path's block-until-IRQ duration).
  void note_rx_wait(sim::Duration wait);

  /// The controller's current prediction in microseconds (negative = no
  /// observation yet). Exposed for tests and diagnostics.
  [[nodiscard]] double rx_wait_ewma_us() const { return rx_wait_ewma_us_; }

  /// TX watchdog policy: how long a stuck TX queue is tolerated and how
  /// the bounded exponential backoff re-kicks are paced before the
  /// watchdog escalates to a full device reset.
  struct WatchdogPolicy {
    sim::Duration deadline;
    u32 max_kick_retries;
    sim::Duration backoff_base;
  };
  static constexpr WatchdogPolicy kWatchdogPolicy{
      .deadline = sim::microseconds(500),
      .max_kick_retries = 3,
      .backoff_base = sim::microseconds(20)};
  enum class WatchdogAction : u8 {
    kNone,      ///< queue healthy (or drained by the inline harvest)
    kRekicked,  ///< backoff wait + doorbell re-ring
    kReset,     ///< escalated: full reset -> renegotiate -> requeue
  };

  /// The virtio-net TX watchdog (cf. virtnet dev_watchdog): harvest
  /// completions, then — if transmissions are stuck — re-kick the TX
  /// queue with bounded exponential backoff (no device reset),
  /// escalating to recover() when the simulated-time deadline or the
  /// retry budget is exhausted. A device that latched
  /// DEVICE_NEEDS_RESET or a broken vring resets immediately.
  WatchdogAction tx_watchdog(HostThread& thread);

  /// Full recovery cycle: reset the device, renegotiate features,
  /// rebuild both queues and requeue the (reused) RX/TX buffers.
  bool recover(HostThread& thread);

  /// One received frame plus the virtio_net_hdr metadata the device
  /// attached to it. csum_valid mirrors VIRTIO_NET_HDR_F_DATA_VALID:
  /// the device vouches for the L4 checksum, so the stack may skip
  /// verification even when the on-wire checksum field does not verify.
  struct RxFrame {
    Bytes frame;
    bool csum_valid = false;
  };

  /// Pop one received frame from the backlog (after napi_poll queued
  /// it).
  std::optional<RxFrame> pop_rx_frame();
  [[nodiscard]] bool rx_backlog_empty() const { return rx_backlog_.empty(); }

  /// Statistics.
  [[nodiscard]] u64 tx_packets() const { return tx_packets_; }
  [[nodiscard]] u64 rx_packets() const { return rx_packets_; }
  [[nodiscard]] u64 tx_kicks() const { return tx_kicks_; }
  /// Doorbells elided by TX kick coalescing (frames that rode a later
  /// kick): tx_kicks + tx_kicks_coalesced + suppressed-by-EVENT_IDX
  /// accounts for every transmitted frame.
  [[nodiscard]] u64 tx_kicks_coalesced() const { return tx_kicks_coalesced_; }
  [[nodiscard]] u64 tx_dropped() const { return tx_dropped_; }
  /// busy_poll() invocations / frames harvested in poll mode / spin
  /// iterations spent across all calls.
  [[nodiscard]] u64 busy_polls() const { return busy_polls_; }
  [[nodiscard]] u64 busy_poll_harvested() const {
    return busy_poll_harvested_;
  }
  [[nodiscard]] u64 busy_poll_spins() const { return busy_poll_spins_; }
  [[nodiscard]] u64 device_resets() const { return device_resets_; }
  [[nodiscard]] u64 watchdog_kicks() const { return watchdog_kicks_; }

  /// Snapshot/restore of the driver's dynamic state: transport + rings,
  /// buffer pools, the RX backlog, NAPI/watchdog state and counters.
  /// Policies (busy-poll, watchdog, datapath options) are configuration
  /// the restore target already applied identically.
  void transfer(migrate::StateIo& io);

 private:
  bool initialize_device(HostThread& thread);
  void post_initial_rx_buffers();

  /// RX buffer bookkeeping: token -> buffer address (single-buffer
  /// layout: virtio_net_hdr + frame in one descriptor, as modern
  /// virtio-net posts them).
  struct RxBuffer {
    HostAddr addr = 0;
    u32 len = 0;
  };
  /// TX buffers recycled through a free list (hdr headroom + frame).
  struct TxBuffer {
    HostAddr hdr_addr = 0;
    HostAddr frame_addr = 0;
  };

  /// Harvest exactly one RX completion into the backlog and recycle its
  /// buffer (shared by napi_poll and busy_poll).
  void harvest_one_rx(virtio::DriverRing& rx);

  [[nodiscard]] virtio::DriverRing& rx_queue();
  [[nodiscard]] virtio::DriverRing& tx_queue();

  VirtioPciTransport transport_;
  BindContext ctx_{};
  net::MacAddr mac_{};
  u16 mtu_ = 1500;
  DatapathOptions datapath_{};

  // Buffer pools, backlog, vectors and NAPI/watchdog state. Persistent
  // across recovery cycles so buffer memory is reused.
  std::vector<RxBuffer> rx_buffers_;
  std::vector<TxBuffer> tx_buffers_;
  std::deque<u32> tx_free_;
  std::deque<RxFrame> rx_backlog_;
  u32 rx_vector_ = 0;
  u32 tx_vector_ = 0;
  u32 kick_retries_ = 0;
  std::optional<sim::SimTime> tx_stall_since_;
  /// RX completions harvested since queue enable — the sequence number
  /// busy_poll() gates on the device's visibility log with. Reset with
  /// the rings on (re)initialization.
  u64 rx_harvest_seq_ = 0;
  /// TX frames added but not yet published/kicked (xmit_more).
  u32 tx_pending_kick_ = 0;
  /// Adaptive controller: EWMA of observed data-arrival waits, in
  /// microseconds (negative = no observation yet -> spin first).
  double rx_wait_ewma_us_ = -1.0;

  u64 tx_packets_ = 0;
  u64 rx_packets_ = 0;
  u64 tx_kicks_ = 0;
  u64 tx_kicks_coalesced_ = 0;
  u64 tx_dropped_ = 0;
  u64 busy_polls_ = 0;
  u64 busy_poll_harvested_ = 0;
  u64 busy_poll_spins_ = 0;
  u64 device_resets_ = 0;
  u64 watchdog_kicks_ = 0;

  u32 kick_coalesce_ = 1;
};

}  // namespace vfpga::hostos
