#include "vfpga/pcie/capabilities.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"

namespace vfpga::pcie {

Bytes PciExpressCapability::encode() const {
  // Layout (offsets within body, after the 2-byte cap header):
  //   0: PCIe capabilities register (version=2, device/port type)
  //   2: device capabilities (bits 2:0 = max payload supported)
  //   6: device control (bits 7:5 = MPS, bits 14:12 = MRRS)
  Bytes body(8, 0);
  ByteSpan s{body};
  store_le16(s, 0,
             static_cast<u16>(0x2 | (static_cast<u16>(device_port_type) << 4)));
  store_le32(s, 2, max_payload_encoding & 0x7);
  store_le16(s, 6,
             static_cast<u16>(((max_payload_encoding & 0x7) << 5) |
                              ((max_read_request_encoding & 0x7) << 12)));
  return body;
}

MsixCapabilityInfo decode_msix_capability(const ConfigSpace& config,
                                          u16 cap_offset) {
  VFPGA_EXPECTS(config.read8(cap_offset) ==
                static_cast<u8>(CapabilityId::MsiX));
  MsixCapabilityInfo info;
  info.table_size = static_cast<u16>(
      (config.read16(static_cast<u16>(cap_offset + 2)) & 0x7ff) + 1);
  const u32 table = config.read32(static_cast<u16>(cap_offset + 4));
  info.table_bar = static_cast<u8>(table & 0x7);
  info.table_offset = table & ~0x7u;
  const u32 pba = config.read32(static_cast<u16>(cap_offset + 8));
  info.pba_bar = static_cast<u8>(pba & 0x7);
  info.pba_offset = pba & ~0x7u;
  return info;
}

}  // namespace vfpga::pcie
