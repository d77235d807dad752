#include "vfpga/hostos/netstack.hpp"

#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"

namespace vfpga::hostos {

KernelNetstack::KernelNetstack(VirtioNetDriver& driver,
                               InterruptController& irq)
    : driver_(&driver), irq_(&irq) {}

void KernelNetstack::configure_fpga_route(net::Ipv4Addr fpga_ip,
                                          net::MacAddr fpga_mac) {
  fpga_ip_ = fpga_ip;
  fpga_mac_ = fpga_mac;
}

bool KernelNetstack::udp_send(HostThread& thread, u16 src_port,
                              net::Ipv4Addr dst, u16 dst_port,
                              ConstByteSpan payload, bool more_coming) {
  thread.exec(thread.costs().syscall_entry);
  thread.copy(payload.size());
  thread.exec(thread.costs().udp_tx_stack);
  // EMSGSIZE: the datagram must fit one frame at the device's MTU. The
  // stack neither fragments nor segments.
  if (payload.size() + net::Ipv4Header::kSize + net::UdpHeader::kSize >
      driver_->mtu()) {
    ++tx_oversized_;
    thread.exec(thread.costs().syscall_exit);
    return false;
  }
  // EHOSTUNREACH: the FPGA's /32 is the only route.
  if (!fpga_mac_.has_value() || dst != fpga_ip_) {
    thread.exec(thread.costs().syscall_exit);
    return false;
  }

  // One pass: headers, payload and padding straight into the reused
  // frame buffer. With VIRTIO_NET_F_CSUM the stack leaves the L4
  // checksum field zero for the device to fill (the partial
  // pseudo-header sum is logically there; the device recomputes in
  // full), so no checksum is computed here.
  const bool offload_csum =
      driver_->negotiated().has(virtio::feature::net::kCsum);
  net::UdpFrameHeader header;
  header.eth.dst = *fpga_mac_;
  header.eth.src = driver_->mac();
  header.ip.src = kHostIp;
  header.ip.dst = dst;
  header.ip.ttl = kIpTtl;
  header.ip.identification = next_ip_id_++;
  header.udp = net::UdpHeader{src_port, dst_port};
  tx_frame_.resize(net::udp_frame_size(payload.size()));
  net::write_udp_frame(tx_frame_, header, payload,
                       offload_csum ? std::optional<u16>{0} : std::nullopt);
  driver_->xmit_frame(thread, tx_frame_, offload_csum,
                      /*csum_start=*/net::EthernetHeader::kSize +
                          net::Ipv4Header::kSize,
                      /*csum_offset=*/6, more_coming);
  thread.exec(thread.costs().syscall_exit);
  return true;
}

void KernelNetstack::service_rx_interrupt(HostThread& thread,
                                          sim::SimTime irq_time) {
  thread.block_until(irq_time);
  thread.exec(thread.costs().irq_entry);
  driver_->napi_poll(thread);
  demux_frames(thread);
}

void KernelNetstack::demux_frames(HostThread& thread) {
  while (const auto rx = driver_->pop_rx_frame()) {
    const Bytes& raw = rx->frame;
    // Only IPv4 parses: any other EtherType is dropped before the UDP
    // stack's cost is charged.
    const auto eth = net::parse_ethernet_frame(raw);
    if (!eth.has_value()) {
      ++frames_dropped_;
      continue;
    }
    thread.exec(thread.costs().udp_rx_stack);
    const auto ip = net::parse_ipv4_packet(ConstByteSpan{raw}.subspan(
        eth->payload_offset, eth->payload_length));
    if (!ip.has_value() || !ip->checksum_ok ||
        ip->header.dst != kHostIp) {
      ++frames_dropped_;
      continue;
    }
    if (ip->header.protocol != net::IpProtocol::Udp) {
      ++frames_dropped_;
      continue;
    }
    const auto ip_payload =
        ConstByteSpan{raw}.subspan(eth->payload_offset + ip->payload_offset,
                                   ip->payload_length);
    const auto udp =
        net::parse_udp_datagram(ip_payload, ip->header.src, ip->header.dst);
    if (!udp.has_value()) {
      ++frames_dropped_;
      continue;
    }
    if (!udp->checksum_ok) {
      // VIRTIO_NET_HDR_F_DATA_VALID: the device already verified the L4
      // checksum (Linux's CHECKSUM_UNNECESSARY), so the promise — not the
      // wire field — is what admits the datagram.
      if (!rx->csum_valid) {
        ++frames_dropped_;
        continue;
      }
      ++csum_rescued_;
    }
    Datagram dgram;
    dgram.src = ip->header.src;
    dgram.src_port = udp->header.src_port;
    dgram.dst_port = udp->header.dst_port;
    dgram.payload.assign(
        ip_payload.begin() + static_cast<std::ptrdiff_t>(udp->payload_offset),
        ip_payload.begin() +
            static_cast<std::ptrdiff_t>(udp->payload_offset +
                                        udp->payload_length));
    socket_queues_[udp->header.dst_port].push_back(std::move(dgram));
    ++frames_demuxed_;
  }
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive(
    HostThread& thread, u16 local_port, RxMode mode, sim::Duration budget) {
  // The adaptive controller is asked before the syscall.
  const bool adaptive = mode == RxMode::kAdaptive;
  const bool spin = mode == RxMode::kBusyPoll ||
                    (adaptive && driver_->should_busy_poll());
  thread.exec(thread.costs().syscall_entry);
  const sim::SimTime enter = thread.now();
  auto& queue = socket_queues_[local_port];
  if (spin && queue.empty()) {
    // sk_busy_loop: spin in the driver until data lands or the budget
    // runs out. No irq_entry, no scheduler wake-up on the hit path.
    if (driver_->busy_poll(thread, budget) > 0) {
      demux_frames(thread);
    }
  }
  if (queue.empty()) {
    // Task blocks; the next RX interrupt wakes it. After a poll miss
    // busy_poll re-armed the vector, so a completion it declined to
    // wait for still has — or will get — its interrupt queued.
    const std::optional<sim::SimTime> irq_time = sleep_on_rx(thread);
    if (irq_time.has_value() && adaptive && !spin) {
      // The controller chose to sleep: feed the observed wait back so
      // it can switch to spinning when the arrival pattern tightens.
      driver_->note_rx_wait(*irq_time > enter ? *irq_time - enter
                                              : sim::Duration{});
    }
  }
  return dequeue(thread, queue);
}

std::optional<sim::SimTime> KernelNetstack::sleep_on_rx(HostThread& thread) {
  // In the transaction-level flow the device has already computed the
  // delivery time of the interrupt the task sleeps on.
  if (!irq_->pending(driver_->rx_vector())) {
    return std::nullopt;
  }
  const sim::SimTime irq_time = irq_->consume(driver_->rx_vector());
  service_rx_interrupt(thread, irq_time);
  thread.exec(thread.costs().wakeup);  // scheduler wakes the receiver
  return irq_time;
}

std::optional<KernelNetstack::Datagram> KernelNetstack::dequeue(
    HostThread& thread, std::deque<Datagram>& queue) {
  if (queue.empty()) {
    thread.exec(thread.costs().syscall_exit);
    return std::nullopt;
  }
  Datagram dgram = std::move(queue.front());
  queue.pop_front();
  thread.exec(thread.costs().socket_recv);
  thread.copy(dgram.payload.size());
  thread.exec(thread.costs().syscall_exit);
  return dgram;
}

u32 KernelNetstack::poll_rx(HostThread& thread) {
  // Consume any pending interrupt first so a later blocking receive
  // doesn't double-service it; then poll unconditionally: a lost
  // interrupt can leave completions on the ring.
  while (irq_->pending(driver_->rx_vector())) {
    irq_->consume(driver_->rx_vector());
  }
  const u32 harvested = driver_->napi_poll(thread);
  demux_frames(thread);
  return harvested;
}

std::optional<KernelNetstack::Datagram> KernelNetstack::udp_receive_poll(
    HostThread& thread, u16 local_port) {
  thread.exec(thread.costs().syscall_entry);
  while (irq_->pending(driver_->rx_vector())) {
    service_rx_interrupt(thread, irq_->consume(driver_->rx_vector()));
  }
  return dequeue(thread, socket_queues_[local_port]);
}

void KernelNetstack::transfer(migrate::StateIo& io) {
  io.u16(next_ip_id_);
  // The ports, each transferred before its queue. Loading clears the
  // map to refill it.
  std::vector<u16> ports;
  for (const auto& entry : socket_queues_) {
    ports.push_back(entry.first);
  }
  ports.resize(io.count<u32>(ports.size()));
  if (io.loading()) {
    socket_queues_.clear();
  }
  for (u16 port : ports) {
    io.u16(port);
    std::deque<Datagram>& queue = socket_queues_[port];
    queue.resize(io.count<u32>(queue.size()));
    for (Datagram& d : queue) {
      io.u32(d.src.value);
      io.u16(d.src_port);
      io.u16(d.dst_port);
      io.blob(d.payload);
    }
  }
  io.u64(frames_demuxed_);
  io.u64(frames_dropped_);
  io.u64(tx_oversized_);
  io.u64(csum_rescued_);
}

}  // namespace vfpga::hostos
