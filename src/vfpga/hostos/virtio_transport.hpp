// virtio-pci-modern transport: the device-type-independent half of every
// VirtIO front-end driver (Linux's virtio_pci_modern.c + virtio_ring.c).
//
// Owns device matching, capability parsing, the reset/feature/status
// handshake, MSI-X programming, virtqueue construction (split or packed
// per the negotiated format), device-config access and doorbell
// notification — so device-class drivers (net, blk, ...) only contribute
// their feature masks, queue usage, and request semantics.
#pragma once

#include <memory>
#include <vector>

#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/packed_driver.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace vfpga::hostos {

class VirtioPciTransport {
 public:
  struct BindContext {
    pcie::RootComplex* rc = nullptr;
    core::VirtioDeviceFunction* device = nullptr;
    const pcie::EnumeratedDevice* enumerated = nullptr;
    InterruptController* irq = nullptr;
    /// Accept VIRTIO_F_RING_PACKED when offered.
    bool prefer_packed = false;
  };

  /// Match + handshake through FEATURES_OK (§3.1.1 steps 1-6).
  /// `driver_features` is everything the device-class driver supports
  /// (transport bits VERSION_1/EVENT_IDX/INDIRECT are added here).
  /// Returns false if the device is not `expected_type` or negotiation
  /// fails.
  bool begin_probe(const BindContext& ctx, virtio::DeviceType expected_type,
                   virtio::FeatureSet driver_features, HostThread& thread);

  /// Allocate an MSI-X vector, program table entry `entry`, and return
  /// the vector number. Aborts (loudly) when `entry` is outside the
  /// device's advertised MSI-X table — programming a phantom entry
  /// would otherwise silently alias interrupts between queues.
  u32 setup_vector(u32 entry, HostThread& thread);
  void set_config_vector(u16 msix_entry, HostThread& thread);

  /// Table size parsed from the device's MSI-X capability.
  [[nodiscard]] u16 msix_table_size() const { return msix_table_size_; }

  /// Create queue `index` (ring format per negotiation), register its
  /// addresses with the device, bind it to MSI-X table entry
  /// `msix_entry`, and enable it.
  virtio::DriverRing& setup_queue(u16 index, u16 msix_entry,
                                  HostThread& thread);

  /// §3.1.1 step 8: write DRIVER_OK, then read the status back and
  /// verify the device accepted it (DRIVER_OK set, DEVICE_NEEDS_RESET
  /// clear) — the re-check a robust driver performs instead of assuming
  /// the write stuck. Returns false when the device is already sick.
  bool finish_probe(HostThread& thread);

  /// Non-posted read of the device status register.
  u8 read_device_status(HostThread& thread);

  /// §2.1.2: has the device latched DEVICE_NEEDS_RESET? Drivers call
  /// this from their watchdog/error paths to decide between retry and
  /// full re-initialization.
  bool device_needs_reset(HostThread& thread);

  /// The bind context of the last begin_probe — recovery paths re-probe
  /// through the same context after a device reset.
  [[nodiscard]] const BindContext& context() const { return ctx_; }

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] virtio::FeatureSet negotiated() const { return negotiated_; }
  [[nodiscard]] bool using_packed_rings() const {
    return negotiated_.has(virtio::feature::kRingPacked);
  }
  [[nodiscard]] virtio::DriverRing& queue(u16 index) {
    return *queues_.at(index);
  }
  [[nodiscard]] mem::HostMemory& memory() { return ctx_.rc->memory(); }

  /// Doorbell: one posted MMIO write to the queue's notify address.
  void notify(u16 queue_index, HostThread& thread);

  /// Device-specific configuration structure access (byte-granular,
  /// non-posted reads: they stall the CPU like any register read).
  u8 device_config_read8(u32 offset, HostThread& thread);
  u16 device_config_read16(u32 offset, HostThread& thread);
  u32 device_config_read32(u32 offset, HostThread& thread);
  u64 device_config_read64(u32 offset, HostThread& thread);

  // Raw common-config accessors (exposed for driver-specific needs).
  void common_write32(HostThread& thread, u32 offset, u32 value);
  void common_write16(HostThread& thread, u32 offset, u16 value);
  void common_write64(HostThread& thread, u32 offset, u64 value);
  u32 common_read32(HostThread& thread, u32 offset);
  u16 common_read16(HostThread& thread, u32 offset);
  u8 common_read8(HostThread& thread, u32 offset);

  /// Snapshot/restore of the transport bookkeeping and every driver
  /// ring's in-RAM state. The restore target must already be bound
  /// (probe replayed deterministically from the same seed) with the same
  /// queue count and ring formats; anything else fails the reader.
  void transfer(migrate::StateIo& io);

 private:
  BindContext ctx_{};
  bool bound_ = false;
  virtio::VirtioPciLayout layout_{};
  virtio::FeatureSet negotiated_{};
  std::vector<std::unique_ptr<virtio::DriverRing>> queues_;
  u8 status_shadow_ = 0;
  u16 msix_table_size_ = 0;
};

}  // namespace vfpga::hostos
