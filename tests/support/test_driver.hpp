// Minimal host-side VirtIO driver harness for controller-level tests.
//
// Drives the VirtioDeviceFunction through its real MMIO surface
// (bar_read/bar_write at time zero) without the cost model, so tests can
// exercise protocol behaviour for any personality — including ones the
// full hostos driver (virtio-net only) does not cover.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace vfpga::testing_support {

class TestDriver {
 public:
  TestDriver(pcie::RootComplex& rc, core::VirtioDeviceFunction& device,
             hostos::InterruptController& irq)
      : rc_(&rc), device_(&device), irq_(&irq) {}

  /// Full §3.1.1 bring-up: reset, negotiate everything offered except
  /// the bits in `decline`, program one MSI-X vector per queue
  /// (+config), build and enable all queues. A second call re-initializes
  /// the device with fresh rings.
  void initialize(u16 queue_count, u16 queue_size = 16,
                  virtio::FeatureSet decline = {}) {
    using namespace virtio;
    vqs_.clear();
    queue_vectors_.clear();
    wr32(commoncfg::kDeviceStatus, 0);
    wr32(commoncfg::kDeviceStatus, status::kAcknowledge);
    wr32(commoncfg::kDeviceStatus, status::kAcknowledge | status::kDriver);

    FeatureSet offered;
    wr32(commoncfg::kDeviceFeatureSelect, 0);
    offered.set_window(0, rd32(commoncfg::kDeviceFeature));
    wr32(commoncfg::kDeviceFeatureSelect, 1);
    offered.set_window(1, rd32(commoncfg::kDeviceFeature));
    negotiated_ = virtio::FeatureSet{offered.bits() & ~decline.bits()};

    wr32(commoncfg::kDriverFeatureSelect, 0);
    wr32(commoncfg::kDriverFeature, negotiated_.window(0));
    wr32(commoncfg::kDriverFeatureSelect, 1);
    wr32(commoncfg::kDriverFeature, negotiated_.window(1));
    wr32(commoncfg::kDeviceStatus, status::kAcknowledge | status::kDriver |
                                       status::kFeaturesOk);

    config_vector_ = irq_->allocate_vector();
    program_msix(0, config_vector_);
    wr16(commoncfg::kMsixConfig, 0);

    for (u16 q = 0; q < queue_count; ++q) {
      wr16(commoncfg::kQueueSelect, q);
      wr16(commoncfg::kQueueSize, queue_size);
      vqs_.push_back(std::make_unique<virtio::VirtqueueDriver>(
          rc_->memory(), queue_size, negotiated_));
      auto& vq = *vqs_.back();
      wr64(commoncfg::kQueueDesc, vq.addresses().desc);
      wr64(commoncfg::kQueueDriver, vq.addresses().avail);
      wr64(commoncfg::kQueueDevice, vq.addresses().used);
      const u32 vector = irq_->allocate_vector();
      queue_vectors_.push_back(vector);
      program_msix(static_cast<u32>(q + 1), vector);
      wr16(commoncfg::kQueueMsixVector, static_cast<u16>(q + 1));
      wr16(commoncfg::kQueueEnable, 1);
      vq.set_used_event(0);
    }
    wr32(commoncfg::kDeviceStatus,
         status::kAcknowledge | status::kDriver | status::kFeaturesOk |
             status::kDriverOk);
  }

  [[nodiscard]] virtio::VirtqueueDriver& vq(u16 q) { return *vqs_.at(q); }
  [[nodiscard]] u32 queue_vector(u16 q) const { return queue_vectors_.at(q); }
  [[nodiscard]] virtio::FeatureSet negotiated() const { return negotiated_; }

  void notify(u16 queue) {
    device_->bar_write(0,
                       core::kNotifyOffset +
                           static_cast<u64>(queue) * core::kNotifyOffMultiplier,
                       queue, 4, now_);
    now_ += sim::microseconds(100);  // keep per-notify times distinct
  }

  [[nodiscard]] u8 read_isr() {
    return static_cast<u8>(device_->bar_read(0, core::kIsrOffset, 1, now_));
  }
  [[nodiscard]] u8 device_cfg8(u32 offset) {
    return static_cast<u8>(
        device_->bar_read(0, core::kDeviceCfgOffset + offset, 1, now_));
  }
  [[nodiscard]] u16 device_cfg16(u32 offset) {
    return static_cast<u16>(
        device_->bar_read(0, core::kDeviceCfgOffset + offset, 2, now_));
  }

  void wr16(u32 offset, u16 v) { device_->bar_write(0, offset, v, 2, now_); }
  void wr32(u32 offset, u32 v) { device_->bar_write(0, offset, v, 4, now_); }
  void wr64(u32 offset, u64 v) {
    wr32(offset, static_cast<u32>(v & 0xffffffffu));
    wr32(offset + 4, static_cast<u32>(v >> 32));
  }
  [[nodiscard]] u32 rd32(u32 offset) {
    return static_cast<u32>(device_->bar_read(0, offset, 4, now_));
  }
  [[nodiscard]] u16 rd16(u32 offset) {
    return static_cast<u16>(device_->bar_read(0, offset, 2, now_));
  }

 private:
  void program_msix(u32 entry, u32 vector) {
    const BarOffset base =
        core::kMsixTableOffset + entry * pcie::kMsixEntryBytes;
    device_->bar_write(0, base + pcie::kMsixEntryAddrLo,
                       static_cast<u32>(pcie::kMsiWindowBase), 4, now_);
    device_->bar_write(0, base + pcie::kMsixEntryAddrHi, 0, 4, now_);
    device_->bar_write(0, base + pcie::kMsixEntryData, vector, 4, now_);
    device_->bar_write(0, base + pcie::kMsixEntryControl, 0, 4, now_);
  }

  pcie::RootComplex* rc_;
  core::VirtioDeviceFunction* device_;
  hostos::InterruptController* irq_;
  virtio::FeatureSet negotiated_{};
  std::vector<std::unique_ptr<virtio::VirtqueueDriver>> vqs_;
  std::vector<u32> queue_vectors_;
  u32 config_vector_ = 0;
  sim::SimTime now_{};
};

/// Queue `q`'s registers as the device holds them, read back through
/// its common configuration. queue_select is restored afterwards, so a
/// read leaves the device's state unchanged.
struct QueueRegisters {
  u16 size = 0;
  bool enabled = false;
  virtio::RingAddresses rings{};
};
inline QueueRegisters queue_registers(core::VirtioDeviceFunction& device,
                                      u16 q) {
  using namespace virtio::commoncfg;
  const sim::SimTime t{};
  const u64 selected = device.bar_read(0, kQueueSelect, 2, t);
  device.bar_write(0, kQueueSelect, q, 2, t);
  QueueRegisters regs;
  regs.size = static_cast<u16>(device.bar_read(0, kQueueSize, 2, t));
  regs.enabled = device.bar_read(0, kQueueEnable, 2, t) != 0;
  regs.rings.desc = device.bar_read(0, kQueueDesc, 8, t);
  regs.rings.avail = device.bar_read(0, kQueueDriver, 8, t);
  regs.rings.used = device.bar_read(0, kQueueDevice, 8, t);
  device.bar_write(0, kQueueSelect, selected, 2, t);
  return regs;
}

}  // namespace vfpga::testing_support
