#include "vfpga/xdma/xdma_ip.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/common/log.hpp"

namespace vfpga::xdma {

XdmaIpFunction::XdmaIpFunction(u64 bram_bytes) : bram_(bram_bytes) {
  auto& cfg = config();
  cfg.set_ids(kXilinxVendorId, kXdmaExampleDeviceId, kXilinxVendorId, 0x0007);
  cfg.set_revision(0x00);
  cfg.set_class_code(0x05, 0x80, 0x00);  // memory controller, other
  cfg.define_bar(0, pcie::BarDefinition{regs::kRegisterSpaceBytes, true,
                                        /*prefetchable=*/false});

  cfg.add_capability(pcie::CapabilityId::PciExpress,
                     pcie::PciExpressCapability{}.encode());
  cfg.add_capability(
      pcie::CapabilityId::MsiX,
      pcie::make_msix_capability_body(kMsixVectors, /*table_bar=*/0,
                                      static_cast<u32>(kMsixTableOffset),
                                      /*pba_bar=*/0,
                                      static_cast<u32>(kMsixPbaOffset)));
}

XdmaIpFunction::~XdmaIpFunction() = default;

void XdmaIpFunction::connect(pcie::RootComplex& rc) {
  port_.emplace(rc.dma_port(*this));
  h2c_ = std::make_unique<DmaChannel>(Direction::H2C, *port_, bram_,
                                      &counters_);
  c2h_ = std::make_unique<DmaChannel>(Direction::C2H, *port_, bram_,
                                      &counters_);
  msix_ = std::make_unique<pcie::MsixTable>(kMsixVectors);
  h2c_->on_complete = [this](sim::SimTime at) {
    msix_->fire(kH2cVector, at, *port_);
  };
  c2h_->on_complete = [this](sim::SimTime at) {
    msix_->fire(kC2hVector, at, *port_);
  };
}

DmaChannel* XdmaIpFunction::channel_for(BarOffset offset, BarOffset base) {
  (void)offset;
  return base == regs::kH2cChannelBase || base == regs::kH2cSgdmaBase
             ? h2c_.get()
             : c2h_.get();
}

u64 XdmaIpFunction::bar_read(u32 bar, BarOffset offset, u32 size,
                             sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    return msix_->aperture_read(offset - kMsixTableOffset, size);
  }
  if (size != 4) {
    // The register file decodes 32-bit accesses only: any other width
    // reads 0, as the MSI-X window does.
    VFPGA_WARN("xdma", "register read not 4 bytes wide: reads 0");
    return 0;
  }
  return register_read(offset, at);
}

void XdmaIpFunction::bar_write(u32 bar, BarOffset offset, u64 value, u32 size,
                               sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    msix_->aperture_write(offset - kMsixTableOffset,
                          static_cast<u32>(value), size, at, *port_);
    return;
  }
  if (size != 4) {
    VFPGA_WARN("xdma", "register write not 4 bytes wide: dropped");
    return;
  }
  register_write(offset, static_cast<u32>(value), at);
}

u64 XdmaIpFunction::register_read(BarOffset offset, sim::SimTime at) {
  (void)at;
  const BarOffset base = offset & ~BarOffset{0xfff};
  const BarOffset reg = offset & 0xfff;
  switch (base) {
    case regs::kH2cChannelBase:
    case regs::kC2hChannelBase: {
      DmaChannel& ch = *channel_for(offset, base);
      const bool is_c2h = base == regs::kC2hChannelBase;
      switch (reg) {
        case regs::kChIdentifier:
          return regs::channel_identifier(is_c2h, 0);
        case regs::kChStatus:
          return ch.status();
        case regs::kChStatusRC: {
          const u32 status = ch.status();
          ch.clear_status();
          return status;
        }
        case regs::kChCompletedDescCount:
          return ch.completed_descriptor_count();
        default:
          return 0;
      }
    }
    case regs::kH2cSgdmaBase:
    case regs::kC2hSgdmaBase: {
      DmaChannel& ch = *channel_for(offset, base);
      switch (reg) {
        case regs::kSgDescLo:
          return ch.descriptor_address() & 0xffffffffu;
        case regs::kSgDescHi:
          return ch.descriptor_address() >> 32;
        default:
          return 0;
      }
    }
    default:
      return 0;
  }
}

void XdmaIpFunction::register_write(BarOffset offset, u32 value,
                                    sim::SimTime at) {
  const BarOffset base = offset & ~BarOffset{0xfff};
  const BarOffset reg = offset & 0xfff;
  switch (base) {
    case regs::kH2cChannelBase:
    case regs::kC2hChannelBase: {
      DmaChannel& ch = *channel_for(offset, base);
      switch (reg) {
        case regs::kChControl:
        case regs::kChControlW1S:
          if ((value & regs::kControlRun) != 0) {
            ch.run(at);
          }
          break;
        case regs::kChControlW1C:
          // Driver clears run/IE bits after completion; engine model is
          // already idle — nothing to do.
          break;
        case regs::kChInterruptEnable:
          ch.set_interrupt_enable(value != 0);
          break;
        default:
          break;
      }
      break;
    }
    case regs::kH2cSgdmaBase:
    case regs::kC2hSgdmaBase: {
      DmaChannel& ch = *channel_for(offset, base);
      switch (reg) {
        case regs::kSgDescLo:
          ch.set_descriptor_address(
              (ch.descriptor_address() & ~0xffffffffull) | value);
          break;
        case regs::kSgDescHi:
          ch.set_descriptor_address((ch.descriptor_address() & 0xffffffffull) |
                                    (static_cast<u64>(value) << 32));
          break;
        case regs::kSgDescAdjacent:
          ch.set_adjacent(value);
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace vfpga::xdma
