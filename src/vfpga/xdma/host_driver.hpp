// Vendor (XDMA) kernel driver model — the reference character-device
// driver from Xilinx dma_ip_drivers, as used in the paper's §III-B.2.
//
// Design-philosophy contrast with VirtIO (§IV-A), reproduced step by
// step: every transfer pins the user buffer, builds a fresh descriptor
// in host memory, programs the SGDMA descriptor-address registers,
// starts the engine, and sleeps until the per-transfer completion
// interrupt; the ISR reads the engine status register over PCIe (a
// non-posted MMIO read that stalls the CPU for ~a microsecond on this
// class of endpoint), stops the engine, and wakes the caller.
#pragma once

#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/xdma/xdma_ip.hpp"

namespace vfpga::xdma {

class XdmaHostDriver {
 public:
  struct BindContext {
    pcie::RootComplex* rc = nullptr;
    XdmaIpFunction* device = nullptr;
    const pcie::EnumeratedDevice* enumerated = nullptr;
    hostos::InterruptController* irq = nullptr;
  };

  /// Match + initialize: program MSI-X, enable channel interrupts,
  /// allocate the descriptor and bounce areas.
  bool probe(const BindContext& ctx, hostos::HostThread& thread);

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] u32 h2c_vector() const { return h2c_vector_; }
  [[nodiscard]] u32 c2h_vector() const { return c2h_vector_; }

  /// Poll-mode switch (ablation ABL-NOTIF): when true, transfers spin on
  /// the engine status register instead of sleeping on the interrupt —
  /// the driver's poll_mode module parameter.
  void set_poll_mode(bool enabled) { poll_mode_ = enabled; }
  [[nodiscard]] bool poll_mode() const { return poll_mode_; }

  /// Blocking host-to-card transfer of `data` to card address
  /// `card_addr` (the write() file operation's core).
  bool h2c_transfer(hostos::HostThread& thread, ConstByteSpan data,
                    FpgaAddr card_addr = 0);

  /// Blocking card-to-host transfer into `out` (the read() core).
  bool c2h_transfer(hostos::HostThread& thread, ByteSpan out,
                    FpgaAddr card_addr = 0);

  /// Completion-wait recovery policy: instead of blocking forever on a
  /// completion interrupt that never comes, the driver reads the engine
  /// status (read-to-clear — this also clears a halted engine), rebuilds
  /// the descriptor list, and restarts the engine with bounded
  /// exponential backoff between attempts.
  struct RecoveryPolicy {
    u32 max_attempts;
    sim::Duration backoff_base;
  };
  static constexpr RecoveryPolicy kRecoveryPolicy{
      .max_attempts = 4, .backoff_base = sim::microseconds(10)};

  [[nodiscard]] u64 transfers_completed() const {
    return transfers_completed_;
  }
  [[nodiscard]] u64 engine_restarts() const { return engine_restarts_; }
  [[nodiscard]] u64 lost_completion_irqs() const {
    return lost_completion_irqs_;
  }

 private:
  bool run_channel(hostos::HostThread& thread, DmaChannel& channel,
                   BarOffset channel_base, BarOffset sgdma_base, u32 vector,
                   HostAddr buffer_addr, FpgaAddr card_addr, u32 length);
  void mmio_write(hostos::HostThread& thread, BarOffset offset, u32 value);
  u32 mmio_read(hostos::HostThread& thread, BarOffset offset);

  BindContext ctx_{};
  bool bound_ = false;
  bool poll_mode_ = false;
  u32 h2c_vector_ = 0;
  u32 c2h_vector_ = 0;
  /// Descriptor list areas (dma_alloc_coherent-ish): one descriptor per
  /// pinned 4 KiB page of the largest supported transfer.
  static constexpr u32 kDescriptorAreaBytes = 32 * (64 * 1024 / 4096 + 1);
  HostAddr h2c_desc_addr_ = 0;
  HostAddr c2h_desc_addr_ = 0;
  HostAddr h2c_buffer_ = 0;  ///< pinned user pages for H2C
  HostAddr c2h_buffer_ = 0;
  u32 buffer_capacity_ = 64 * 1024;
  u64 transfers_completed_ = 0;
  u64 engine_restarts_ = 0;
  u64 lost_completion_irqs_ = 0;
};

}  // namespace vfpga::xdma
