// PCI type-0 configuration space.
//
// A full 4 KiB configuration space with the standard type-0 header, the
// capability-list mechanism, and the BAR sizing protocol (write all-ones,
// read back the size mask). The VirtIO-modern driver model discovers the
// device exactly the way the Linux virtio-pci driver does: match
// vendor/device ID, walk the capability chain for vendor-specific
// capabilities, and map the referenced BAR regions — so requirement (i)
// and (iii) of §II-C ("announce correct IDs", "add VirtIO capabilities to
// the capability list") are real, testable operations here.
#pragma once

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga::pcie {

/// Standard configuration header offsets (type 0).
namespace cfg {
inline constexpr u16 kVendorId = 0x00;
inline constexpr u16 kDeviceId = 0x02;
inline constexpr u16 kCommand = 0x04;
inline constexpr u16 kStatus = 0x06;
inline constexpr u16 kRevisionId = 0x08;
inline constexpr u16 kClassCode = 0x09;  // 3 bytes: prog-if, sub, base
inline constexpr u16 kHeaderType = 0x0e;
inline constexpr u16 kBar0 = 0x10;
inline constexpr u16 kSubsystemVendorId = 0x2c;
inline constexpr u16 kSubsystemId = 0x2e;
inline constexpr u16 kCapabilityPointer = 0x34;
inline constexpr u16 kInterruptLine = 0x3c;

/// Command register bits.
inline constexpr u16 kCommandMemoryEnable = 1u << 1;
inline constexpr u16 kCommandBusMaster = 1u << 2;
/// Status register: capability list present.
inline constexpr u16 kStatusCapList = 1u << 4;
}  // namespace cfg

/// Capability IDs used by the models.
enum class CapabilityId : u8 {
  PowerManagement = 0x01,
  Msi = 0x05,
  VendorSpecific = 0x09,
  PciExpress = 0x10,
  MsiX = 0x11,
};

struct BarDefinition {
  u64 size = 0;          ///< 0 = BAR not implemented
  bool is_64bit = false;
  bool prefetchable = false;
};

class ConfigSpace {
 public:
  static constexpr u32 kSize = 4096;
  static constexpr u32 kMaxBars = 6;

  ConfigSpace();

  // ---- identity -------------------------------------------------------------

  void set_ids(u16 vendor, u16 device, u16 subsys_vendor, u16 subsys_id);
  void set_revision(u8 revision);
  void set_class_code(u8 base, u8 sub, u8 prog_if);

  [[nodiscard]] u16 vendor_id() const { return read16(cfg::kVendorId); }
  [[nodiscard]] u16 device_id() const { return read16(cfg::kDeviceId); }
  [[nodiscard]] u8 revision() const { return space_[cfg::kRevisionId]; }

  // ---- BARs ------------------------------------------------------------------

  /// Define BAR `index` with the given size (power of two, >= 16).
  void define_bar(u32 index, BarDefinition def);
  [[nodiscard]] const BarDefinition& bar_definition(u32 index) const;

  /// Address currently programmed into BAR `index` (0 if unassigned).
  [[nodiscard]] u64 bar_address(u32 index) const;

  // ---- capability list -------------------------------------------------------

  /// Append a capability: writes [id, next, body...] at the next free
  /// offset, links the chain, sets the status bit. Returns the config
  /// offset of the new capability. `body` excludes the 2-byte header.
  u16 add_capability(CapabilityId id, ConstByteSpan body);

  /// Find the first capability with `id` at or after `start_offset` in
  /// chain order. Returns 0 when absent.
  [[nodiscard]] u16 find_capability(CapabilityId id, u16 after = 0) const;

  // ---- raw access (what config TLPs do) ---------------------------------------

  [[nodiscard]] u8 read8(u16 offset) const;
  [[nodiscard]] u16 read16(u16 offset) const;
  [[nodiscard]] u32 read32(u16 offset) const;
  void write16(u16 offset, u16 value);
  /// 32-bit config write; implements BAR sizing/programming semantics.
  void write32(u16 offset, u32 value);

  [[nodiscard]] bool memory_enabled() const {
    return (read16(cfg::kCommand) & cfg::kCommandMemoryEnable) != 0;
  }
  [[nodiscard]] bool bus_master_enabled() const {
    return (read16(cfg::kCommand) & cfg::kCommandBusMaster) != 0;
  }

 private:
  [[nodiscard]] static bool is_bar_register(u16 offset) {
    return offset >= cfg::kBar0 && offset < cfg::kBar0 + 4 * kMaxBars &&
           (offset - cfg::kBar0) % 4 == 0;
  }
  void write_bar_register(u32 bar_index, u32 value);

  std::array<u8, kSize> space_{};
  std::array<BarDefinition, kMaxBars> bars_{};
  std::array<u64, kMaxBars> bar_values_{};
  u16 next_cap_offset_ = 0x40;
  u16 last_cap_offset_ = 0;
};

}  // namespace vfpga::pcie
