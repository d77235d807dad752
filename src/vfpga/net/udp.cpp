#include "vfpga/net/udp.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/net/checksum.hpp"

namespace vfpga::net {
namespace {

ChecksumAccumulator pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst,
                                      u64 length) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value);
  acc.add_u32(dst.value);
  acc.add_u16(static_cast<u16>(IpProtocol::Udp));
  acc.add_u16(static_cast<u16>(length));
  return acc;
}

}  // namespace

u16 udp_checksum(ConstByteSpan datagram, Ipv4Addr src, Ipv4Addr dst) {
  VFPGA_EXPECTS(datagram.size() >= UdpHeader::kSize);
  ChecksumAccumulator acc = pseudo_header_sum(src, dst, datagram.size());
  acc.add(datagram.first(6));
  acc.add(datagram.subspan(UdpHeader::kSize));
  const u16 csum = acc.fold();
  // RFC 768: an all-zero checksum means "none"; transmit 0xffff instead.
  return csum == 0 ? 0xffff : csum;
}

void write_udp_frame(ByteSpan frame, const UdpFrameHeader& header,
                     ConstByteSpan payload, std::optional<u16> udp_checksum) {
  constexpr u64 kUdpOff = EthernetHeader::kSize + Ipv4Header::kSize;
  const u64 udp_len = UdpHeader::kSize + payload.size();
  VFPGA_EXPECTS(Ipv4Header::kSize + udp_len <= 0xffff);
  VFPGA_EXPECTS(frame.size() == udp_frame_size(payload.size()));

  EthernetHeader eth = header.eth;
  eth.type = EtherType::Ipv4;
  write_ethernet_header(frame, eth);
  Ipv4Header ip = header.ip;
  ip.protocol = IpProtocol::Udp;
  ip.total_length = static_cast<u16>(Ipv4Header::kSize + udp_len);
  write_ipv4_header(frame.subspan(EthernetHeader::kSize), ip);

  const ByteSpan datagram = frame.subspan(kUdpOff, udp_len);
  store_be16(datagram, 0, header.udp.src_port);
  store_be16(datagram, 2, header.udp.dst_port);
  store_be16(datagram, 4, static_cast<u16>(udp_len));
  store_be16(datagram, 6, udp_checksum.value_or(0));
  std::copy(payload.begin(), payload.end(),
            datagram.begin() + UdpHeader::kSize);
  std::fill(frame.begin() + static_cast<std::ptrdiff_t>(kUdpOff + udp_len),
            frame.end(), u8{0});
  if (!udp_checksum.has_value()) {
    store_be16(datagram, 6, net::udp_checksum(datagram, ip.src, ip.dst));
  }
}

std::optional<ParsedUdp> parse_udp_datagram(ConstByteSpan data, Ipv4Addr src,
                                            Ipv4Addr dst) {
  if (data.size() < UdpHeader::kSize) {
    return std::nullopt;
  }
  const u16 length = load_be16(data, 4);
  if (length < UdpHeader::kSize || length > data.size()) {
    return std::nullopt;
  }
  ParsedUdp out;
  out.header.src_port = load_be16(data, 0);
  out.header.dst_port = load_be16(data, 2);
  out.payload_offset = UdpHeader::kSize;
  out.payload_length = static_cast<u64>(length) - UdpHeader::kSize;

  if (load_be16(data, 6) == 0) {
    out.checksum_ok = true;  // checksum not used by sender
  } else {
    // In place: a datagram carrying its correct checksum sums, with the
    // pseudo-header, to negative zero. For a nonzero wire value this is
    // exactly udp_checksum() == wire, a computed 0 sent as 0xffff
    // included (DESIGN.md, net layer).
    ChecksumAccumulator acc = pseudo_header_sum(src, dst, length);
    acc.add(data.first(length));
    out.checksum_ok = acc.fold() == 0;
  }
  return out;
}

}  // namespace vfpga::net
