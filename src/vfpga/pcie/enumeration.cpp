#include "vfpga/pcie/enumeration.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"

namespace vfpga::pcie {

std::vector<EnumeratedDevice> enumerate_bus(RootComplex& rc,
                                            EnumerationOptions options) {
  std::vector<EnumeratedDevice> devices;
  u64 next_mmio = options.mmio_window_base;

  for (u32 fn_index = 0; fn_index < rc.function_count(); ++fn_index) {
    Function& fn = rc.function(fn_index);
    EnumeratedDevice dev;
    dev.function_index = fn_index;
    sim::Duration spent{};

    const auto id_read = rc.config_read(fn, cfg::kVendorId);
    spent += id_read.cpu_stall;
    dev.vendor_id = static_cast<u16>(id_read.value & 0xffff);
    dev.device_id = static_cast<u16>(id_read.value >> 16);
    if (dev.vendor_id == 0xffff) {
      continue;  // no device decodes this function
    }
    const auto subsys = rc.config_read(fn, cfg::kSubsystemVendorId);
    spent += subsys.cpu_stall;
    dev.subsystem_vendor_id = static_cast<u16>(subsys.value & 0xffff);
    dev.subsystem_id = static_cast<u16>(subsys.value >> 16);
    const auto rev = rc.config_read(fn, cfg::kRevisionId);
    spent += rev.cpu_stall;
    dev.revision = static_cast<u8>(rev.value & 0xff);

    // ---- BAR sizing + assignment -------------------------------------------
    for (u32 bar = 0; bar < ConfigSpace::kMaxBars; ++bar) {
      const u16 reg = static_cast<u16>(cfg::kBar0 + 4 * bar);
      const u32 original = rc.config_read(fn, reg).value;
      spent += rc.config_write(fn, reg, 0xffffffffu);
      const u32 mask = rc.config_read(fn, reg).value;
      if (mask == 0) {
        continue;  // BAR not implemented
      }
      const bool is_64bit = (mask & 0x4) != 0;
      u64 size_mask = mask & ~0xfu;
      if (is_64bit) {
        const u16 high_reg = static_cast<u16>(reg + 4);
        spent += rc.config_write(fn, high_reg, 0xffffffffu);
        const u32 high_mask = rc.config_read(fn, high_reg).value;
        size_mask |= static_cast<u64>(high_mask) << 32;
        if ((size_mask >> 32) == 0) {
          size_mask |= ~0ull << 32;  // device decodes < 4 GiB: sign-extend
        }
      } else {
        size_mask |= ~0ull << 32;
      }
      const u64 size = ~size_mask + 1;

      const u64 alignment = std::max<u64>(size, options.min_alignment);
      const u64 address = (next_mmio + alignment - 1) & ~(alignment - 1);
      next_mmio = address + size;

      spent += rc.config_write(fn, reg, static_cast<u32>(address));
      if (is_64bit) {
        spent += rc.config_write(fn, static_cast<u16>(reg + 4),
                                 static_cast<u32>(address >> 32));
        ++bar;  // consumed the next register as the high half
      }
      (void)original;
      dev.bars.push_back(EnumeratedBar{bar - (is_64bit ? 1u : 0u), address,
                                       size, is_64bit});
    }

    // ---- capability chain ----------------------------------------------------
    const u16 status = fn.config().read16(cfg::kStatus);
    if ((status & cfg::kStatusCapList) != 0) {
      u16 ptr = fn.config().read8(cfg::kCapabilityPointer);
      for (int guard = 0; ptr != 0 && guard < 64; ++guard) {
        dev.capabilities.push_back(EnumeratedCapability{
            static_cast<CapabilityId>(fn.config().read8(ptr)), ptr});
        ptr = fn.config().read8(static_cast<u16>(ptr + 1));
      }
    }

    // ---- enable memory decode + bus mastering --------------------------------
    // Command and status share one dword; merge so the status bits
    // (notably the capability-list flag) survive the read-modify-write.
    const u32 cmd_status = rc.config_read(fn, cfg::kCommand).value;
    spent += rc.config_write(
        fn, cfg::kCommand,
        cmd_status | cfg::kCommandMemoryEnable | cfg::kCommandBusMaster);

    dev.enumeration_time = spent;
    devices.push_back(std::move(dev));
  }
  return devices;
}

}  // namespace vfpga::pcie
