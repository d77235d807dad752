#include "vfpga/pcie/msix.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::pcie {

MsixTable::MsixTable(u32 vector_count) : entries_(vector_count) {
  VFPGA_EXPECTS(vector_count >= 1 && vector_count <= 2048);
}

std::optional<u32> MsixTable::entry_index(BarOffset offset, u32 size) const {
  if (size != 4 || offset % 4 != 0) {
    VFPGA_WARN("msix", "MSI-X table access not an aligned dword: ignored");
    return std::nullopt;
  }
  if (offset / kMsixEntryBytes >= entries_.size()) {
    VFPGA_WARN("msix", "MSI-X table access past the last entry: ignored");
    return std::nullopt;
  }
  return static_cast<u32>(offset / kMsixEntryBytes);
}

u32 MsixTable::aperture_read(BarOffset offset, u32 size) const {
  const std::optional<u32> index = entry_index(offset, size);
  if (!index) {
    return 0;
  }
  const Entry& e = entries_[*index];
  switch (offset % kMsixEntryBytes) {
    case kMsixEntryAddrLo:
      return static_cast<u32>(e.address & 0xffffffffu);
    case kMsixEntryAddrHi:
      return static_cast<u32>(e.address >> 32);
    case kMsixEntryData:
      return e.data;
    default:  // kMsixEntryControl
      return e.masked ? kMsixControlMasked : 0;
  }
}

void MsixTable::aperture_write(BarOffset offset, u32 value, u32 size,
                               sim::SimTime at, const DmaPort& port) {
  const std::optional<u32> index = entry_index(offset, size);
  if (!index) {
    return;
  }
  Entry& e = entries_[*index];
  switch (offset % kMsixEntryBytes) {
    case kMsixEntryAddrLo:
      e.address = (e.address & ~0xffffffffull) | value;
      break;
    case kMsixEntryAddrHi:
      e.address = (e.address & 0xffffffffull) | (static_cast<u64>(value) << 32);
      break;
    case kMsixEntryData:
      e.data = value;
      break;
    default: {  // kMsixEntryControl
      const bool was_masked = e.masked;
      e.masked = (value & kMsixControlMasked) != 0;
      if (was_masked && !e.masked && e.pending) {
        e.pending = false;
        fire(*index, at, port);
      }
      break;
    }
  }
}

sim::SimTime MsixTable::fire(u32 index, sim::SimTime at, const DmaPort& port) {
  VFPGA_EXPECTS(index < entries_.size());
  Entry& e = entries_[index];
  if (e.masked) {
    e.pending = true;
    return at;
  }
  std::array<u8, 4> message{};
  store_le32(message, 0, e.data);
  return port.write(at, e.address, message).delivered;
}

Bytes make_msix_capability_body(u16 table_size, u8 table_bar, u32 table_offset,
                                u8 pba_bar, u32 pba_offset) {
  // The message-control field encodes (table_size - 1) in 11 bits; a
  // larger table cannot be advertised, so reject it loudly instead of
  // masking the size down and silently aliasing vectors.
  VFPGA_EXPECTS(table_size >= 1 && table_size <= 2048);
  VFPGA_EXPECTS((table_offset & 0x7) == 0 && (pba_offset & 0x7) == 0);
  Bytes body(10, 0);
  ByteSpan s{body};
  store_le16(s, 0, static_cast<u16>(table_size - 1));
  store_le32(s, 2, table_offset | table_bar);
  store_le32(s, 6, pba_offset | pba_bar);
  return body;
}

void MsixTable::transfer(migrate::StateIo& io) {
  io.expect<u32>(static_cast<u32>(entries_.size()));
  for (Entry& e : entries_) {
    io.u64(e.address);
    io.u32(e.data);
    io.boolean(e.masked);
    io.boolean(e.pending);
  }
  if (io.failed()) {
    // A failed reader yields zeros: unmasked entries aimed at host
    // address 0. Back to the power-on state, so a vector raised before
    // the reset goes pending instead of writing host memory.
    std::fill(entries_.begin(), entries_.end(), Entry{});
  }
}

}  // namespace vfpga::pcie
