#include "vfpga/xdma/host_driver.hpp"

#include <array>

#include "vfpga/common/contract.hpp"

namespace vfpga::xdma {

void XdmaHostDriver::mmio_write(hostos::HostThread& thread, BarOffset offset,
                                u32 value) {
  const auto r = ctx_.rc->cpu_mmio_write(*ctx_.device, 0, offset, value, 4,
                                         thread.now());
  thread.exec_fixed(r.cpu_cost);
}

u32 XdmaHostDriver::mmio_read(hostos::HostThread& thread, BarOffset offset) {
  const auto r =
      ctx_.rc->cpu_mmio_read(*ctx_.device, 0, offset, 4, thread.now());
  thread.mmio_stall(r.cpu_stall);
  return static_cast<u32>(r.value);
}

bool XdmaHostDriver::probe(const BindContext& ctx,
                           hostos::HostThread& thread) {
  VFPGA_EXPECTS(ctx.rc != nullptr && ctx.device != nullptr &&
                ctx.enumerated != nullptr && ctx.irq != nullptr);
  ctx_ = ctx;
  if (ctx.enumerated->vendor_id != kXilinxVendorId) {
    return false;
  }
  // Sanity-check the engine identifiers the way the driver's
  // engine_init does.
  const u32 h2c_id =
      mmio_read(thread, regs::kH2cChannelBase + regs::kChIdentifier);
  const u32 c2h_id =
      mmio_read(thread, regs::kC2hChannelBase + regs::kChIdentifier);
  if ((h2c_id >> 20) != 0x1fc || (c2h_id >> 20) != 0x1fc) {
    return false;
  }

  // MSI-X vectors, one per channel.
  h2c_vector_ = ctx.irq->allocate_vector();
  c2h_vector_ = ctx.irq->allocate_vector();
  const auto program_entry = [&](u32 entry, u32 vector) {
    const BarOffset base = kMsixTableOffset + entry * pcie::kMsixEntryBytes;
    mmio_write(thread, base + pcie::kMsixEntryAddrLo,
               static_cast<u32>(hostos::InterruptController::message_address()));
    mmio_write(thread, base + pcie::kMsixEntryAddrHi, 0);
    mmio_write(thread, base + pcie::kMsixEntryData, vector);
    mmio_write(thread, base + pcie::kMsixEntryControl, 0);
  };
  program_entry(kH2cVector, h2c_vector_);
  program_entry(kC2hVector, c2h_vector_);

  mmio_write(thread, regs::kH2cChannelBase + regs::kChInterruptEnable, 1);
  mmio_write(thread, regs::kC2hChannelBase + regs::kChInterruptEnable, 1);

  // Descriptor slots + pinned-page stand-ins.
  auto& memory = ctx.rc->memory();
  h2c_desc_addr_ = memory.allocate(kDescriptorAreaBytes, 32);
  c2h_desc_addr_ = memory.allocate(kDescriptorAreaBytes, 32);
  h2c_buffer_ = memory.allocate(buffer_capacity_, 4096);
  c2h_buffer_ = memory.allocate(buffer_capacity_, 4096);

  bound_ = true;
  return true;
}

bool XdmaHostDriver::run_channel(hostos::HostThread& thread,
                                 DmaChannel& channel, BarOffset channel_base,
                                 BarOffset sgdma_base, u32 vector,
                                 HostAddr buffer_addr, FpgaAddr card_addr,
                                 u32 length) {
  const HostAddr desc_base = channel.direction() == Direction::H2C
                                 ? h2c_desc_addr_
                                 : c2h_desc_addr_;
  for (u32 attempt = 0; attempt < kRecoveryPolicy.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff before re-submitting; the engine was
      // already stopped and its sticky status cleared below.
      thread.block_until(
          thread.now() + kRecoveryPolicy.backoff_base *
                             static_cast<i64>(1ll << (attempt - 1)));
      ++engine_restarts_;
    }

    // Per-transfer submission work: get_user_pages, SG table, descriptor
    // construction + cache flush (§IV-A: "the device driver creates one
    // or more descriptors ... when initiating a DMA transfer"). Pinned
    // user pages are not physically contiguous, so the driver emits one
    // descriptor per 4 KiB page, chained — exactly the SG shape
    // dma_ip_drivers builds. A retry rebuilds the list from scratch.
    thread.exec(thread.costs().xdma_submit);
    constexpr u32 kPage = 4096;
    const u32 descriptor_count = (length + kPage - 1) / kPage;
    VFPGA_ASSERT(descriptor_count * kDescriptorBytes <= kDescriptorAreaBytes);
    for (u32 i = 0; i < descriptor_count; ++i) {
      const u32 offset = i * kPage;
      const u32 chunk = std::min(kPage, length - offset);
      const bool last = i + 1 == descriptor_count;
      XdmaDescriptor desc;
      desc.control_flags =
          last ? static_cast<u8>(descctl::kStop | descctl::kEop |
                                 descctl::kCompleted)
               : u8{0};
      desc.length = chunk;
      if (channel.direction() == Direction::H2C) {
        desc.src_addr = buffer_addr + offset;
        desc.dst_addr = card_addr + offset;
      } else {
        desc.src_addr = card_addr + offset;
        desc.dst_addr = buffer_addr + offset;
      }
      desc.next_addr = last ? 0 : desc_base + (i + 1) * kDescriptorBytes;
      desc.next_adjacent = last ? 0
                                : static_cast<u8>(std::min<u32>(
                                      descriptor_count - i - 1, 63));
      std::array<u8, kDescriptorBytes> raw{};
      desc.encode(raw);
      ctx_.rc->memory().write(desc_base + i * kDescriptorBytes, raw);
    }
    const HostAddr desc_addr = desc_base;

    // Program the SGDMA registers and start the engine: three posted MMIO
    // writes per transfer.
    mmio_write(thread, sgdma_base + regs::kSgDescLo,
               static_cast<u32>(desc_addr & 0xffffffffu));
    mmio_write(thread, sgdma_base + regs::kSgDescHi,
               static_cast<u32>(desc_addr >> 32));
    mmio_write(thread, channel_base + regs::kChControlW1S,
               regs::kControlRun | regs::kControlIeDescStopped);

    if (poll_mode_) {
      // Poll-mode ablation: spin on the status register; each poll is a
      // full non-posted round trip.
      bool completed = false;
      for (int spins = 0; spins < 64; ++spins) {
        const u32 status = mmio_read(thread, channel_base + regs::kChStatus);
        if ((status & regs::kStatusMagicStopped) != 0) {
          break;  // engine halted on a bad descriptor: no point spinning
        }
        if ((status & regs::kStatusDescStopped) != 0) {
          completed = true;
          break;
        }
      }
      if (completed) {
        mmio_write(thread, channel_base + regs::kChControlW1C,
                   regs::kControlRun);
        thread.exec(thread.costs().xdma_teardown);
        ++transfers_completed_;
        return true;
      }
      // Clear the sticky halt status (read-to-clear) and stop the
      // engine, then retry with a fresh descriptor list.
      (void)mmio_read(thread, channel_base + regs::kChStatusRC);
      mmio_write(thread, channel_base + regs::kChControlW1C,
                 regs::kControlRun);
      continue;
    }

    // Interrupt mode: the run-bit write made the engine execute; its
    // completion interrupt is pending with a delivery timestamp.
    if (!ctx_.irq->pending(vector)) {
      // Completion-wait timeout (xdma_xfer_submit's wait would expire
      // here). Read the engine status — read-to-clear, so this also
      // clears a sticky halt — to tell "engine halted" from "transfer
      // done but the MSI-X write was lost".
      const u32 status = mmio_read(thread, channel_base + regs::kChStatusRC);
      const bool halted = (status & regs::kStatusMagicStopped) != 0;
      const bool done = !halted && (status & regs::kStatusDescStopped) != 0;
      mmio_write(thread, channel_base + regs::kChControlW1C,
                 regs::kControlRun);
      if (done) {
        // The DMA itself finished; only the notify vanished. Finish in
        // process context — no ISR ran.
        ++lost_completion_irqs_;
        thread.exec(thread.costs().xdma_teardown);
        ++transfers_completed_;
        return true;
      }
      continue;  // halted (or never started): rebuild + restart
    }
    const sim::SimTime irq_time = ctx_.irq->consume(vector);
    thread.block_until(irq_time);
    thread.exec(thread.costs().irq_entry);
    // The ISR reads the channel status over PCIe — the expensive
    // non-posted read the VirtIO path does not have.
    const u32 status = mmio_read(thread, channel_base + regs::kChStatusRC);
    if ((status & regs::kStatusMagicStopped) != 0) {
      mmio_write(thread, channel_base + regs::kChControlW1C,
                 regs::kControlRun);
      continue;
    }
    thread.exec(thread.costs().xdma_isr_body);
    mmio_write(thread, channel_base + regs::kChControlW1C, regs::kControlRun);
    // Wake the sleeping submitter and finish in process context.
    thread.exec(thread.costs().wakeup);
    thread.exec(thread.costs().xdma_teardown);
    ++transfers_completed_;
    return true;
  }
  return false;
}

bool XdmaHostDriver::h2c_transfer(hostos::HostThread& thread,
                                  ConstByteSpan data, FpgaAddr card_addr) {
  VFPGA_EXPECTS(bound_);
  VFPGA_EXPECTS(data.size() <= buffer_capacity_);
  // User pages are pinned, not copied: place the caller's bytes at the
  // pinned-region address.
  ctx_.rc->memory().write(h2c_buffer_, data);
  return run_channel(thread, ctx_.device->h2c(), regs::kH2cChannelBase,
                     regs::kH2cSgdmaBase, h2c_vector_, h2c_buffer_, card_addr,
                     static_cast<u32>(data.size()));
}

bool XdmaHostDriver::c2h_transfer(hostos::HostThread& thread, ByteSpan out,
                                  FpgaAddr card_addr) {
  VFPGA_EXPECTS(bound_);
  VFPGA_EXPECTS(out.size() <= buffer_capacity_);
  if (!run_channel(thread, ctx_.device->c2h(), regs::kC2hChannelBase,
                   regs::kC2hSgdmaBase, c2h_vector_, c2h_buffer_, card_addr,
                   static_cast<u32>(out.size()))) {
    return false;
  }
  ctx_.rc->memory().read(c2h_buffer_, out);
  return true;
}

}  // namespace vfpga::xdma
