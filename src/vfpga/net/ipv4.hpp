// IPv4 header construction and parsing (RFC 791).
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

/// The one protocol the stack and the device carry; any other is
/// dropped and counted on both sides.
enum class IpProtocol : u8 {
  Udp = 17,
};

struct Ipv4Header {
  Ipv4Addr src{};
  Ipv4Addr dst{};
  IpProtocol protocol = IpProtocol::Udp;
  u8 ttl = 64;
  u16 identification = 0;
  u16 total_length = 0;

  static constexpr u64 kSize = 20;  ///< no options in this stack
};

/// Write the 20-byte header, header checksum included, at the start of
/// `packet`; `header.total_length` is written as given.
void write_ipv4_header(ByteSpan packet, const Ipv4Header& header);

struct ParsedIpv4 {
  Ipv4Header header;
  u64 payload_offset = 0;
  u64 payload_length = 0;
  bool checksum_ok = false;
};

[[nodiscard]] std::optional<ParsedIpv4> parse_ipv4_packet(ConstByteSpan packet);

}  // namespace vfpga::net
