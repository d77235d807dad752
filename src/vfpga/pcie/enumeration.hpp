// PCIe bus enumeration.
//
// Performs what the platform firmware + kernel PCI core do at boot for
// each attached function: read the IDs, size every BAR with the
// write-ones protocol, assign MMIO addresses from the host's PCI window,
// enable memory decoding and bus mastering, and index the capability
// chain. Drivers (virtio-pci-modern model, XDMA driver model) bind
// against the resulting EnumeratedDevice the same way Linux drivers bind
// against a struct pci_dev.
#pragma once

#include <vector>

#include "vfpga/pcie/capabilities.hpp"
#include "vfpga/pcie/root_complex.hpp"

namespace vfpga::pcie {

struct EnumeratedBar {
  u32 index = 0;
  u64 address = 0;
  u64 size = 0;
  bool is_64bit = false;
};

struct EnumeratedCapability {
  CapabilityId id{};
  u16 config_offset = 0;
};

struct EnumeratedDevice {
  u32 function_index = 0;
  u16 vendor_id = 0;
  u16 device_id = 0;
  u16 subsystem_vendor_id = 0;
  u16 subsystem_id = 0;
  u8 revision = 0;
  std::vector<EnumeratedBar> bars;
  std::vector<EnumeratedCapability> capabilities;

  /// Total CPU time the enumeration of this device consumed (config
  /// round trips) — reported for completeness; enumeration is not on the
  /// measured data path.
  sim::Duration enumeration_time{};
};

struct EnumerationOptions {
  /// Base of the host's 32-bit MMIO allocation window.
  u64 mmio_window_base = 0xe000'0000ull;
  /// Alignment floor for BAR assignment (kernel uses page granularity).
  u64 min_alignment = 4096;
};

/// Enumerate every function attached to `rc`.
std::vector<EnumeratedDevice> enumerate_bus(RootComplex& rc,
                                            EnumerationOptions options = {});

}  // namespace vfpga::pcie
