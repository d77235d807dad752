// Builders and parsers for standard PCI capabilities.
//
// Only the capabilities the two testbeds actually need are modelled:
// PCI Express (advertising MPS/MRRS), MSI-X (interrupts),
// and the vendor-specific capability format (the carrier for VirtIO's
// configuration-structure pointers, built in vfpga/virtio/pci_caps).
#pragma once

#include "vfpga/common/types.hpp"
#include "vfpga/pcie/config_space.hpp"

namespace vfpga::pcie {

/// PCI Express capability body (subset: capability register + device
/// capabilities/control carrying max-payload/read-request encodings).
struct PciExpressCapability {
  u8 device_port_type = 0;   ///< 0 = PCIe endpoint
  u32 max_payload_encoding = 1;       ///< 1 => 256 B
  u32 max_read_request_encoding = 2;  ///< 2 => 512 B

  [[nodiscard]] Bytes encode() const;
};

/// Parsed view of an MSI-X capability found during enumeration.
struct MsixCapabilityInfo {
  u16 table_size = 0;
  u8 table_bar = 0;
  u32 table_offset = 0;
  u8 pba_bar = 0;
  u32 pba_offset = 0;
};

/// Decode the MSI-X capability at config offset `cap_offset`.
[[nodiscard]] MsixCapabilityInfo decode_msix_capability(
    const ConfigSpace& config, u16 cap_offset);

}  // namespace vfpga::pcie
