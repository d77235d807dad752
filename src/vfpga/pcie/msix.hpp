// MSI-X table model.
//
// The endpoint carries an MSI-X capability whose table lives in one of
// its BARs. The host "OS" programs each vector with an address in the
// MSI doorbell window and a message value; the device fires a vector by
// issuing a posted DMA write of the message to that address, which the
// root complex turns into an interrupt delivery. Masked vectors set the
// pending bit instead, and deliver when unmasked — the same semantics
// the Linux irqchip relies on.
#pragma once

#include <optional>
#include <vector>

#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::pcie {

/// Layout constants for one MSI-X table entry (PCIe spec 7.7.2).
inline constexpr u32 kMsixEntryBytes = 16;
inline constexpr u32 kMsixEntryAddrLo = 0;
inline constexpr u32 kMsixEntryAddrHi = 4;
inline constexpr u32 kMsixEntryData = 8;
inline constexpr u32 kMsixEntryControl = 12;
inline constexpr u32 kMsixControlMasked = 1u << 0;

class MsixTable {
 public:
  explicit MsixTable(u32 vector_count);

  [[nodiscard]] u32 size() const {
    return static_cast<u32>(entries_.size());
  }

  /// Table-aperture accesses (routed from the owning function's BAR).
  /// Only aligned 4-byte accesses to an entry of the table are
  /// implemented; any other access reads 0 or is dropped, with a
  /// warning.
  [[nodiscard]] u32 aperture_read(BarOffset offset, u32 size) const;
  void aperture_write(BarOffset offset, u32 value, u32 size, sim::SimTime at,
                      const DmaPort& port);

  /// Device-side: fire vector `index` at time `at`; a posted write goes
  /// out through `port`. Returns the time the message was delivered (or
  /// `at` when the vector is masked and only the pending bit was set).
  sim::SimTime fire(u32 index, sim::SimTime at, const DmaPort& port);

  /// Aperture size in bytes (for BAR layout).
  [[nodiscard]] u64 aperture_bytes() const {
    return static_cast<u64>(entries_.size()) * kMsixEntryBytes;
  }

  /// Snapshot/restore of the programmed vectors (address/data/mask/
  /// pending). The table size is structural and must already match. A
  /// failed load leaves every vector at its power-on state (masked).
  void transfer(migrate::StateIo& io);

 private:
  struct Entry {
    u64 address = 0;
    u32 data = 0;
    bool masked = true;  // spec: vectors come up masked
    bool pending = false;
  };

  /// The index of the entry an aperture access names, or nullopt (with
  /// a warning) for an access that is not implemented.
  [[nodiscard]] std::optional<u32> entry_index(BarOffset offset,
                                               u32 size) const;

  std::vector<Entry> entries_;
};

/// Body of the MSI-X capability (after the 2-byte header):
/// message control (table size - 1), table offset/BIR, PBA offset/BIR.
[[nodiscard]] Bytes make_msix_capability_body(u16 table_size, u8 table_bar,
                                              u32 table_offset, u8 pba_bar,
                                              u32 pba_offset);

}  // namespace vfpga::pcie
