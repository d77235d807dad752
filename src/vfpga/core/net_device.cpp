#include "vfpga/core/net_device.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::core {

using virtio::net::NetConfigLayout;
using virtio::net::NetHeader;

NetDeviceLogic::NetDeviceLogic(NetDeviceConfig config) : config_(config) {}

virtio::FeatureSet NetDeviceLogic::device_features() const {
  virtio::FeatureSet f;
  f.set(virtio::feature::net::kMac);
  f.set(virtio::feature::net::kStatus);
  f.set(virtio::feature::net::kMtu);
  if (config_.offer_csum) {
    f.set(virtio::feature::net::kCsum);
  }
  // The echo logic always produces full checksums, so GUEST_CSUM is safe
  // to offer unconditionally. No segmentation offload and no mergeable
  // RX buffers: every frame fits one buffer at the device MTU.
  f.set(virtio::feature::net::kGuestCsum);
  return f;
}

void NetDeviceLogic::on_driver_ready(virtio::FeatureSet negotiated) {
  // Every negotiated device-class bit must be one we actually offered
  // (transport bits 24-41 belong to the controller). A bit arriving here
  // that the logic never advertised means some layer invented a feature
  // whose behaviour nothing implements — fail loudly at DRIVER_OK
  // instead of silently dropping its semantics on the wire.
  constexpr u64 kTransportBits = ((1ull << 42) - 1) & ~((1ull << 24) - 1);
  VFPGA_EXPECTS(
      virtio::FeatureSet{negotiated.bits() & ~kTransportBits}.subset_of(
          device_features()));
  negotiated_ = negotiated;
}

u8 NetDeviceLogic::device_config_read(u32 offset) const {
  switch (offset) {
    case NetConfigLayout::kMacOffset + 0:
    case NetConfigLayout::kMacOffset + 1:
    case NetConfigLayout::kMacOffset + 2:
    case NetConfigLayout::kMacOffset + 3:
    case NetConfigLayout::kMacOffset + 4:
    case NetConfigLayout::kMacOffset + 5:
      return kFpgaMac.octets[offset - NetConfigLayout::kMacOffset];
    case NetConfigLayout::kStatusOffset:
      return static_cast<u8>(virtio::net::kNetStatusLinkUp);
    case NetConfigLayout::kStatusOffset + 1:
      return 0;
    case NetConfigLayout::kMtuOffset:
      return static_cast<u8>(virtio::net::kDeviceMtu & 0xff);
    case NetConfigLayout::kMtuOffset + 1:
      return static_cast<u8>(virtio::net::kDeviceMtu >> 8);
    default:
      return 0;
  }
}

u64 NetDeviceLogic::processing_cycles(u64 frame_bytes,
                                      bool checksummed) const {
  const u64 beats = (frame_bytes + 7) / 8;
  u64 cycles = kNetPipelineTiming.fixed_cycles +
               beats * kNetPipelineTiming.cycles_per_beat;
  if (checksummed) {
    cycles += beats;  // second pass through the checksum pipeline
  }
  return cycles;
}

std::optional<UserLogic::Response> NetDeviceLogic::process(
    u16 queue, ConstByteSpan payload, u32 /*writable_capacity*/,
    const ChainMeta& /*meta*/) {
  VFPGA_EXPECTS(queue == virtio::net::kTxQueue);
  if (payload.size() < NetHeader::kSize) {
    ++dropped_;
    return std::nullopt;
  }
  const NetHeader vhdr = NetHeader::decode(payload);
  const ConstByteSpan frame = payload.subspan(NetHeader::kSize);

  if (vhdr.gso_type != NetHeader::kGsoNone) {
    // A segmentation request the device never offered: hostile input.
    ++dropped_;
    return std::nullopt;
  }

  // Only IPv4 parses: an ARP or any other non-IP frame is dropped.
  const auto parsed_eth = net::parse_ethernet_frame(frame);
  if (!parsed_eth.has_value()) {
    ++dropped_;
    return std::nullopt;
  }

  // ---- IPv4 ---------------------------------------------------------------------
  const auto ip_span = frame.subspan(parsed_eth->payload_offset,
                                     parsed_eth->payload_length);
  const auto parsed_ip = net::parse_ipv4_packet(ip_span);
  if (!parsed_ip.has_value() || !parsed_ip->checksum_ok) {
    ++dropped_;
    return std::nullopt;
  }

  // ---- UDP echo ---------------------------------------------------------------------
  if (parsed_ip->header.protocol != net::IpProtocol::Udp) {
    ++dropped_;
    return std::nullopt;
  }
  const auto udp_span =
      ip_span.subspan(parsed_ip->payload_offset, parsed_ip->payload_length);
  const net::Ipv4Addr src_ip = parsed_ip->header.src;
  const net::Ipv4Addr dst_ip = parsed_ip->header.dst;
  const auto parsed_udp = net::parse_udp_datagram(udp_span, src_ip, dst_ip);

  // One checksum pass per hop. The echo swaps endpoints, which leaves
  // every ones'-complement sum unchanged, so the checksum the device completes or verifies here is already the
  // echo's: it is recomputed only when the wire carried none, or when
  // the completed one covered more than the UDP length.
  std::optional<u16> echo_csum;
  bool device_checksummed = false;
  if ((vhdr.flags & NetHeader::kNeedsCsum) != 0) {
    // VIRTIO_NET_F_CSUM: the checksum field holds only the
    // pseudo-header sum and the device completes it, the paper's example
    // of work the FPGA performs "on behalf of the host".
    if (udp_span.size() < net::UdpHeader::kSize) {
      ++dropped_;
      return std::nullopt;
    }
    const u16 completed = net::udp_checksum(udp_span, src_ip, dst_ip);
    device_checksummed = true;
    ++checksums_offloaded_;
    if (parsed_udp.has_value() &&
        net::UdpHeader::kSize + parsed_udp->payload_length ==
            udp_span.size()) {
      echo_csum = completed;
    }
  } else {
    if (!parsed_udp.has_value() || !parsed_udp->checksum_ok) {
      ++dropped_;
      return std::nullopt;
    }
    if (const u16 wire = load_be16(udp_span, 6); wire != 0) {
      echo_csum = wire;  // verified equal to the recomputed checksum
    }
  }
  if (!parsed_udp.has_value()) {
    // Reachable in the offload branch: a frame whose UDP length fields
    // were mangled in flight parses as IPv4 (header checksum intact)
    // but not as UDP. Garbage in -> drop, never crash the device.
    ++dropped_;
    return std::nullopt;
  }

  // Write the echo once: same payload, endpoints swapped.
  net::UdpFrameHeader echo;
  echo.eth.dst = parsed_eth->header.src;
  echo.eth.src = kFpgaMac;
  echo.ip.src = dst_ip;
  echo.ip.dst = src_ip;
  echo.ip.identification = parsed_ip->header.identification;
  echo.udp = net::UdpHeader{parsed_udp->header.dst_port,
                            parsed_udp->header.src_port};
  const auto echo_payload = udp_span.subspan(parsed_udp->payload_offset,
                                             parsed_udp->payload_length);
  const u64 echo_frame_size = net::udp_frame_size(echo_payload.size());

  Response response;
  response.payload.resize(NetHeader::kSize + echo_frame_size);
  NetHeader out_hdr;
  out_hdr.num_buffers = 1;
  if (negotiated_.has(virtio::feature::net::kGuestCsum)) {
    out_hdr.flags = NetHeader::kDataValid;  // we computed a full checksum
  }
  out_hdr.encode(response.payload);
  net::write_udp_frame(ByteSpan{response.payload}.subspan(NetHeader::kSize),
                       echo, echo_payload, echo_csum);
  response.target_queue = virtio::net::kRxQueue;
  response.processing_cycles =
      processing_cycles(echo_frame_size, device_checksummed);
  ++udp_echoes_;
  return response;
}

void NetDeviceLogic::transfer(migrate::StateIo& io) {
  io.features(negotiated_);
  io.u64(udp_echoes_);
  io.u64(checksums_offloaded_);
  io.u64(dropped_);
}

}  // namespace vfpga::core
