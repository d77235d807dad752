// User-space socket API.
//
// The paper's test application "uses the C socket programming API to
// send packets to the FPGA" (§III-B.1). UdpSocket gives examples and
// benchmarks the same shape: socket / bind / sendto / recvfrom, with
// every call charged through the host thread's cost model.
#pragma once

#include "vfpga/hostos/netstack.hpp"

namespace vfpga::hostos {

class UdpSocket {
 public:
  UdpSocket(KernelNetstack& stack, u16 local_port)
      : stack_(&stack), local_port_(local_port) {}

  [[nodiscard]] u16 local_port() const { return local_port_; }

  /// setsockopt(SO_BUSY_POLL) analogue: select the receive path and the
  /// per-call spin budget (zero budget = driver default). kInterrupt
  /// keeps recvfrom() on the classic blocking path, byte for byte.
  void set_rx_mode(RxMode mode) { rx_mode_ = mode; }
  void set_busy_poll_budget(sim::Duration budget) {
    busy_poll_budget_ = budget;
  }

  /// sendto(2): returns false on EHOSTUNREACH. `more_coming` is the
  /// MSG_MORE flag — a promise of an immediate follow-up send, letting
  /// the driver coalesce TX doorbells.
  bool sendto(HostThread& thread, net::Ipv4Addr dst, u16 dst_port,
              ConstByteSpan payload, bool more_coming = false) {
    return stack_->udp_send(thread, local_port_, dst, dst_port, payload,
                            more_coming);
  }

  /// recvfrom(2), blocking — or busy-polling/adaptive per set_rx_mode.
  std::optional<KernelNetstack::Datagram> recvfrom(HostThread& thread) {
    return stack_->udp_receive(thread, local_port_, rx_mode_,
                               busy_poll_budget_);
  }

  /// recvfrom(2) with MSG_DONTWAIT.
  std::optional<KernelNetstack::Datagram> recvfrom_nonblock(
      HostThread& thread) {
    return stack_->udp_receive_poll(thread, local_port_);
  }

 private:
  KernelNetstack* stack_;
  u16 local_port_;
  RxMode rx_mode_ = RxMode::kInterrupt;
  sim::Duration busy_poll_budget_{};  ///< zero = driver policy default
};

}  // namespace vfpga::hostos
