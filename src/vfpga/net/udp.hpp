// UDP frame construction and datagram parsing with full pseudo-header
// checksums (RFC 768).
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"

namespace vfpga::net {

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;

  static constexpr u64 kSize = 8;
};

/// The headers of one Ethernet + IPv4 + UDP frame. The writer sets
/// eth.type, ip.protocol and ip.total_length itself.
struct UdpFrameHeader {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;
};

/// Bytes write_udp_frame() fills for a `payload_len`-byte payload,
/// Ethernet minimum padding included.
[[nodiscard]] constexpr u64 udp_frame_size(u64 payload_len) {
  const u64 ip_total = Ipv4Header::kSize + UdpHeader::kSize + payload_len;
  return EthernetHeader::kSize +
         (ip_total < kMinEthernetPayload ? kMinEthernetPayload : ip_total);
}

/// Write a whole UDP frame into `frame` (exactly
/// udp_frame_size(payload.size()) bytes) in one pass: headers, the
/// payload copy and zero padding. `udp_checksum` empty computes the full
/// pseudo-header checksum over the written datagram; a value is stored
/// as given (0 leaves it to checksum offload, or a checksum the caller
/// already knows is right for this datagram).
void write_udp_frame(ByteSpan frame, const UdpFrameHeader& header,
                     ConstByteSpan payload, std::optional<u16> udp_checksum);

/// The checksum `datagram` should carry under the pseudo-header (src,
/// dst, UDP, datagram.size()), summed in place with its own checksum
/// field counted as zero. A computed 0 is returned as 0xffff (RFC 768).
[[nodiscard]] u16 udp_checksum(ConstByteSpan datagram, Ipv4Addr src,
                               Ipv4Addr dst);

struct ParsedUdp {
  UdpHeader header;
  u64 payload_offset = 0;
  u64 payload_length = 0;
  bool checksum_ok = false;
};

/// Parse a datagram; the pseudo-header addresses must come from the
/// enclosing IPv4 header. The checksum is verified in place, without a
/// copy.
[[nodiscard]] std::optional<ParsedUdp> parse_udp_datagram(ConstByteSpan data,
                                                          Ipv4Addr src,
                                                          Ipv4Addr dst);

}  // namespace vfpga::net
