#include "vfpga/net/ethernet.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"

namespace vfpga::net {

void write_ethernet_header(ByteSpan frame, const EthernetHeader& header) {
  VFPGA_EXPECTS(frame.size() >= EthernetHeader::kSize);
  std::copy(header.dst.octets.begin(), header.dst.octets.end(), frame.begin());
  std::copy(header.src.octets.begin(), header.src.octets.end(),
            frame.begin() + 6);
  store_be16(frame, 12, static_cast<u16>(header.type));
}

std::optional<ParsedEthernet> parse_ethernet_frame(ConstByteSpan frame) {
  if (frame.size() < EthernetHeader::kSize) {
    return std::nullopt;
  }
  ParsedEthernet out;
  std::copy_n(frame.begin(), 6, out.header.dst.octets.begin());
  std::copy_n(frame.begin() + 6, 6, out.header.src.octets.begin());
  if (load_be16(frame, 12) != static_cast<u16>(EtherType::Ipv4)) {
    return std::nullopt;
  }
  out.payload_offset = EthernetHeader::kSize;
  out.payload_length = frame.size() - EthernetHeader::kSize;
  return out;
}

}  // namespace vfpga::net
