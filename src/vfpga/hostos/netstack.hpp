// Kernel UDP/IP network stack model.
//
// The glue between the socket API and the virtio-net driver: the one
// static route to the FPGA on transmit, frame construction/validation
// with real checksums, NAPI-driven receive demultiplexing of UDP to
// per-port socket queues, and blocking receive that sleeps on the RX
// interrupt. The paper's test setup — "entries are added to the
// operating system's routing table and ARP cache to facilitate routing
// packets from the test application to the FPGA" (§III-B.1) — is
// configure_fpga_route(): one host route and one permanent neighbour,
// so every other destination is unreachable.
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "vfpga/hostos/virtio_net_driver.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::hostos {

/// Receive-path selection for a socket (the SO_BUSY_POLL family):
/// interrupt = classic sleep-on-IRQ; busy-poll = spin on the used ring
/// for a budget before falling back; adaptive = the driver's EWMA
/// controller picks spin vs sleep per call.
enum class RxMode : u8 {
  kInterrupt,
  kBusyPoll,
  kAdaptive,
};

class KernelNetstack {
 public:
  /// The host's address on the point-to-point link to the FPGA.
  static constexpr net::Ipv4Addr kHostIp =
      net::Ipv4Addr::from_octets(10, 42, 0, 1);
  static constexpr u8 kIpTtl = 64;

  KernelNetstack(VirtioNetDriver& driver, InterruptController& irq);

  /// The paper's static setup: host route to the FPGA through the
  /// virtio-net interface plus a permanent neighbour entry.
  void configure_fpga_route(net::Ipv4Addr fpga_ip, net::MacAddr fpga_mac);

  /// sendto(2) semantics: route, build, transmit. Returns false on
  /// EMSGSIZE (the datagram does not fit the device MTU) and on
  /// EHOSTUNREACH (no route set, or `dst` is not the FPGA).
  /// `more_coming` is the MSG_MORE hint, forwarded to the driver's
  /// xmit_more TX kick coalescing.
  bool udp_send(HostThread& thread, u16 src_port, net::Ipv4Addr dst,
                u16 dst_port, ConstByteSpan payload,
                bool more_coming = false);

  struct Datagram {
    net::Ipv4Addr src{};
    u16 src_port = 0;
    u16 dst_port = 0;
    Bytes payload;
  };

  /// recvfrom(2): receive the next datagram for `local_port` by `mode`.
  /// kInterrupt sleeps until the RX interrupt, then runs the
  /// NAPI/IP/UDP receive path. kBusyPoll (SO_BUSY_POLL) first spins on
  /// the RX queue for `budget` (zero = the driver's default),
  /// harvesting completions as their used-ring writes become visible
  /// and skipping the IRQ entry and the scheduler wake-up on the hit
  /// path; a miss falls back to the sleep (busy_poll re-armed the
  /// vector). kAdaptive asks the driver's EWMA controller whether to
  /// spin, and feeds the wait back when it sleeps. Nullopt
  /// when no interrupt is (or becomes) pending — the sequential-
  /// simulation analogue of a receive timeout.
  std::optional<Datagram> udp_receive(HostThread& thread, u16 local_port,
                                      RxMode mode,
                                      sim::Duration budget = sim::Duration{});

  /// Non-blocking variant: only drains already-delivered interrupts.
  std::optional<Datagram> udp_receive_poll(HostThread& thread,
                                           u16 local_port);

  /// Interrupt-less receive servicing: run the NAPI poll + demux even
  /// when no RX interrupt fired. This is the recovery path for a lost
  /// MSI-X notify — the used ring may hold completions that never raised
  /// a vector. Returns the number of frames harvested.
  u32 poll_rx(HostThread& thread);

  [[nodiscard]] u64 frames_demuxed() const { return frames_demuxed_; }
  [[nodiscard]] u64 frames_dropped() const { return frames_dropped_; }
  /// Sends refused with EMSGSIZE: the datagram did not fit the MTU.
  [[nodiscard]] u64 tx_oversized() const { return tx_oversized_; }
  /// Datagrams accepted on the device's DATA_VALID promise although the
  /// on-wire checksum did not verify (a frame corrupted after the
  /// device checked it).
  [[nodiscard]] u64 csum_rescued() const { return csum_rescued_; }

  /// Snapshot/restore of the stack's dynamic state: socket queues,
  /// IP-id counter, counters. The route is configuration
  /// (configure_fpga_route) and is rebuilt by the restore target's own
  /// setup.
  void transfer(migrate::StateIo& io);

 private:
  /// Service one RX interrupt: irq entry, NAPI poll, IP/UDP demux.
  void service_rx_interrupt(HostThread& thread, sim::SimTime irq_time);
  void demux_frames(HostThread& thread);
  /// Block on the RX vector: service the interrupt, then wake the
  /// sleeping task. Returns the interrupt time, or nullopt when none is
  /// pending (the receive would block forever).
  std::optional<sim::SimTime> sleep_on_rx(HostThread& thread);
  /// The receive tail: pop the queue's head and copy it out to the user
  /// (nullopt when empty), then charge the syscall exit.
  std::optional<Datagram> dequeue(HostThread& thread,
                                   std::deque<Datagram>& queue);

  VirtioNetDriver* driver_;
  InterruptController* irq_;
  /// The one host route and its permanent neighbour entry; nullopt
  /// until configure_fpga_route. Nothing resolves or learns entries at
  /// run time.
  net::Ipv4Addr fpga_ip_{};
  std::optional<net::MacAddr> fpga_mac_;
  u16 next_ip_id_ = 1;
  /// udp_send's frame, reused so a steady send allocates nothing.
  Bytes tx_frame_;
  std::map<u16, std::deque<Datagram>> socket_queues_;
  u64 frames_demuxed_ = 0;
  u64 frames_dropped_ = 0;
  u64 tx_oversized_ = 0;
  u64 csum_rescued_ = 0;
};

}  // namespace vfpga::hostos
