// Ethernet II framing.
#pragma once

#include <optional>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

/// The one EtherType the stack and the device personalities carry: the
/// FPGA is reached through a static neighbour entry, so no ARP runs.
enum class EtherType : u16 {
  Ipv4 = 0x0800,
};

struct EthernetHeader {
  MacAddr dst{};
  MacAddr src{};
  EtherType type = EtherType::Ipv4;

  static constexpr u64 kSize = 14;
};

/// Minimum payload so the frame (without FCS) reaches 60 bytes.
inline constexpr u64 kMinEthernetPayload = 46;

/// Write the 14-byte header at the start of `frame`.
void write_ethernet_header(ByteSpan frame, const EthernetHeader& header);

struct ParsedEthernet {
  EthernetHeader header;
  /// Offset/length of the payload inside the frame.
  u64 payload_offset = 0;
  u64 payload_length = 0;
};

/// Parse and validate a frame; nullopt for runts and non-IPv4 frames.
[[nodiscard]] std::optional<ParsedEthernet> parse_ethernet_frame(
    ConstByteSpan frame);

}  // namespace vfpga::net
