#include "vfpga/pcie/config_space.hpp"

#include "vfpga/common/contract.hpp"

namespace vfpga::pcie {
namespace {

constexpr u32 kBarFlag64Bit = 0x4;
constexpr u32 kBarFlagPrefetch = 0x8;

bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

ConfigSpace::ConfigSpace() {
  // Header type 0, single function.
  space_[cfg::kHeaderType] = 0x00;
}

void ConfigSpace::set_ids(u16 vendor, u16 device, u16 subsys_vendor,
                          u16 subsys_id) {
  ByteSpan s{space_};
  store_le16(s, cfg::kVendorId, vendor);
  store_le16(s, cfg::kDeviceId, device);
  store_le16(s, cfg::kSubsystemVendorId, subsys_vendor);
  store_le16(s, cfg::kSubsystemId, subsys_id);
}

void ConfigSpace::set_revision(u8 revision) {
  space_[cfg::kRevisionId] = revision;
}

void ConfigSpace::set_class_code(u8 base, u8 sub, u8 prog_if) {
  space_[cfg::kClassCode] = prog_if;
  space_[cfg::kClassCode + 1] = sub;
  space_[cfg::kClassCode + 2] = base;
}

void ConfigSpace::define_bar(u32 index, BarDefinition def) {
  VFPGA_EXPECTS(index < kMaxBars);
  VFPGA_EXPECTS(def.size == 0 || (is_pow2(def.size) && def.size >= 16));
  VFPGA_EXPECTS(!def.is_64bit || index + 1 < kMaxBars);
  bars_[index] = def;
}

const BarDefinition& ConfigSpace::bar_definition(u32 index) const {
  VFPGA_EXPECTS(index < kMaxBars);
  return bars_[index];
}

u64 ConfigSpace::bar_address(u32 index) const {
  VFPGA_EXPECTS(index < kMaxBars);
  return bar_values_[index];
}

u16 ConfigSpace::add_capability(CapabilityId id, ConstByteSpan body) {
  const u16 offset = next_cap_offset_;
  const u16 total = static_cast<u16>(2 + body.size());
  VFPGA_EXPECTS(offset + total <= 0x100);  // caps live in legacy space

  space_[offset] = static_cast<u8>(id);
  space_[offset + 1] = 0;  // end of chain for now
  for (std::size_t i = 0; i < body.size(); ++i) {
    space_[offset + 2 + i] = body[i];
  }

  if (last_cap_offset_ == 0) {
    space_[cfg::kCapabilityPointer] = static_cast<u8>(offset);
    ByteSpan s{space_};
    store_le16(s, cfg::kStatus,
               static_cast<u16>(read16(cfg::kStatus) | cfg::kStatusCapList));
  } else {
    space_[last_cap_offset_ + 1] = static_cast<u8>(offset);
  }
  last_cap_offset_ = offset;
  next_cap_offset_ = static_cast<u16>((offset + total + 3) & ~u16{3});
  return offset;
}

u16 ConfigSpace::find_capability(CapabilityId id, u16 after) const {
  if ((read16(cfg::kStatus) & cfg::kStatusCapList) == 0) {
    return 0;
  }
  u16 ptr = space_[cfg::kCapabilityPointer];
  bool passed_start = (after == 0);
  // A well-formed chain has < 48 entries; bound the walk to stay safe
  // against a corrupted chain.
  for (int guard = 0; ptr != 0 && guard < 64; ++guard) {
    if (passed_start && space_[ptr] == static_cast<u8>(id)) {
      return ptr;
    }
    if (ptr == after) {
      passed_start = true;
    }
    ptr = space_[ptr + 1];
  }
  return 0;
}

u8 ConfigSpace::read8(u16 offset) const {
  VFPGA_EXPECTS(offset < kSize);
  return space_[offset];
}

u16 ConfigSpace::read16(u16 offset) const {
  VFPGA_EXPECTS(u32{offset} + 2 <= kSize);
  return load_le16(ConstByteSpan{space_}, offset);
}

u32 ConfigSpace::read32(u16 offset) const {
  VFPGA_EXPECTS(u32{offset} + 4 <= kSize);
  if (is_bar_register(offset)) {
    const u32 index = (u32{offset} - cfg::kBar0) / 4;
    // Low dword of a BAR (or high dword of a 64-bit BAR).
    const bool high_half =
        index > 0 && bars_[index - 1].is_64bit && bars_[index].size == 0;
    if (high_half) {
      return static_cast<u32>(bar_values_[index - 1] >> 32);
    }
    const BarDefinition& def = bars_[index];
    if (def.size == 0) {
      return 0;
    }
    u32 flags = 0;
    if (def.is_64bit) {
      flags |= kBarFlag64Bit;
    }
    if (def.prefetchable) {
      flags |= kBarFlagPrefetch;
    }
    return (static_cast<u32>(bar_values_[index]) & ~u32{0xf}) | flags;
  }
  return load_le32(ConstByteSpan{space_}, offset);
}

void ConfigSpace::write16(u16 offset, u16 value) {
  VFPGA_EXPECTS(u32{offset} + 2 <= kSize);
  store_le16(ByteSpan{space_}, offset, value);
}

void ConfigSpace::write32(u16 offset, u32 value) {
  VFPGA_EXPECTS(u32{offset} + 4 <= kSize);
  if (is_bar_register(offset)) {
    write_bar_register((u32{offset} - cfg::kBar0) / 4, value);
    return;
  }
  store_le32(ByteSpan{space_}, offset, value);
}

void ConfigSpace::write_bar_register(u32 bar_index, u32 value) {
  // High dword of a 64-bit BAR?
  if (bar_index > 0 && bars_[bar_index - 1].is_64bit &&
      bars_[bar_index].size == 0) {
    const u32 low_index = bar_index - 1;
    const u64 size = bars_[low_index].size;
    if (value == 0xffffffffu) {
      // Sizing: store size mask; the read path reconstructs it.
      const u64 mask = ~(size - 1);
      bar_values_[low_index] =
          (bar_values_[low_index] & 0xffffffffull) | (mask & ~0xffffffffull);
    } else {
      bar_values_[low_index] = (bar_values_[low_index] & 0xffffffffull) |
                               (static_cast<u64>(value) << 32);
    }
    return;
  }
  const BarDefinition& def = bars_[bar_index];
  if (def.size == 0) {
    return;  // unimplemented BAR ignores writes
  }
  if (value == 0xffffffffu) {
    const u64 mask = ~(def.size - 1);
    bar_values_[bar_index] =
        (bar_values_[bar_index] & ~0xffffffffull) | (mask & 0xffffffffull);
  } else {
    bar_values_[bar_index] = (bar_values_[bar_index] & ~0xffffffffull) |
                             (value & ~u32{0xf});
  }
}

}  // namespace vfpga::pcie
