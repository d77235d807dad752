#include "vfpga/hostos/virtio_transport.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::hostos {

using namespace virtio::commoncfg;

void VirtioPciTransport::common_write32(HostThread& thread, u32 offset,
                                        u32 value) {
  const auto result = ctx_.rc->cpu_mmio_write(
      *ctx_.device, layout_.common.bar, layout_.common.offset + offset, value,
      4, thread.now());
  thread.exec_fixed(result.cpu_cost);
}

void VirtioPciTransport::common_write16(HostThread& thread, u32 offset,
                                        u16 value) {
  const auto result = ctx_.rc->cpu_mmio_write(
      *ctx_.device, layout_.common.bar, layout_.common.offset + offset, value,
      2, thread.now());
  thread.exec_fixed(result.cpu_cost);
}

void VirtioPciTransport::common_write64(HostThread& thread, u32 offset,
                                        u64 value) {
  // Modern drivers write 64-bit fields as two dwords.
  common_write32(thread, offset, static_cast<u32>(value & 0xffffffffu));
  common_write32(thread, offset + 4, static_cast<u32>(value >> 32));
}

u32 VirtioPciTransport::common_read32(HostThread& thread, u32 offset) {
  const auto result = ctx_.rc->cpu_mmio_read(*ctx_.device, layout_.common.bar,
                                             layout_.common.offset + offset,
                                             4, thread.now());
  thread.mmio_stall(result.cpu_stall);
  return static_cast<u32>(result.value);
}

u16 VirtioPciTransport::common_read16(HostThread& thread, u32 offset) {
  const auto result = ctx_.rc->cpu_mmio_read(*ctx_.device, layout_.common.bar,
                                             layout_.common.offset + offset,
                                             2, thread.now());
  thread.mmio_stall(result.cpu_stall);
  return static_cast<u16>(result.value);
}

u8 VirtioPciTransport::common_read8(HostThread& thread, u32 offset) {
  const auto result = ctx_.rc->cpu_mmio_read(*ctx_.device, layout_.common.bar,
                                             layout_.common.offset + offset,
                                             1, thread.now());
  thread.mmio_stall(result.cpu_stall);
  return static_cast<u8>(result.value);
}

bool VirtioPciTransport::begin_probe(const BindContext& ctx,
                                     virtio::DeviceType expected_type,
                                     virtio::FeatureSet driver_features,
                                     HostThread& thread) {
  VFPGA_EXPECTS(ctx.rc != nullptr && ctx.device != nullptr &&
                ctx.enumerated != nullptr && ctx.irq != nullptr);
  ctx_ = ctx;
  bound_ = false;

  if (ctx.enumerated->vendor_id != virtio::kVirtioPciVendorId ||
      ctx.enumerated->device_id != virtio::modern_pci_device_id(expected_type) ||
      ctx.enumerated->revision < virtio::kVirtioPciModernRevision) {
    return false;
  }
  const auto layout = virtio::parse_virtio_capabilities(ctx.device->config());
  if (!layout.has_value()) {
    return false;
  }
  layout_ = *layout;

  // Parse the MSI-X capability so vector setup can bounds-check against
  // the table the device actually has, not the table we assume.
  const u16 msix_cap =
      ctx.device->config().find_capability(pcie::CapabilityId::MsiX);
  if (msix_cap == 0) {
    return false;  // this transport is MSI-X only
  }
  msix_table_size_ =
      pcie::decode_msix_capability(ctx.device->config(), msix_cap).table_size;

  // Reset + ACKNOWLEDGE + DRIVER.
  common_write32(thread, kDeviceStatus, 0);
  status_shadow_ = virtio::status::kAcknowledge;
  common_write32(thread, kDeviceStatus, status_shadow_);
  status_shadow_ |= virtio::status::kDriver;
  common_write32(thread, kDeviceStatus, status_shadow_);

  // Feature exchange: transport bits + device-class bits.
  driver_features.set(virtio::feature::kVersion1);
  driver_features.set(virtio::feature::kRingEventIdx);
  driver_features.set(virtio::feature::kRingIndirectDesc);
  if (ctx.prefer_packed) {
    driver_features.set(virtio::feature::kRingPacked);
  }

  virtio::FeatureSet offered;
  common_write32(thread, kDeviceFeatureSelect, 0);
  offered.set_window(0, common_read32(thread, kDeviceFeature));
  common_write32(thread, kDeviceFeatureSelect, 1);
  offered.set_window(1, common_read32(thread, kDeviceFeature));

  negotiated_ = offered.intersect(driver_features);
  common_write32(thread, kDriverFeatureSelect, 0);
  common_write32(thread, kDriverFeature, negotiated_.window(0));
  common_write32(thread, kDriverFeatureSelect, 1);
  common_write32(thread, kDriverFeature, negotiated_.window(1));

  status_shadow_ |= virtio::status::kFeaturesOk;
  common_write32(thread, kDeviceStatus, status_shadow_);
  if ((common_read8(thread, kDeviceStatus) & virtio::status::kFeaturesOk) ==
      0) {
    common_write32(thread, kDeviceStatus, virtio::status::kFailed);
    return false;
  }
  return true;
}

u32 VirtioPciTransport::setup_vector(u32 entry, HostThread& thread) {
  // Fail loudly instead of writing past the table aperture: an aliased
  // entry would deliver one queue's interrupts on another's vector.
  VFPGA_EXPECTS(entry < msix_table_size_);
  const u32 vector = ctx_.irq->allocate_vector();
  const BarOffset base =
      core::kMsixTableOffset + entry * pcie::kMsixEntryBytes;
  const auto write = [&](BarOffset off, u32 value) {
    const auto r = ctx_.rc->cpu_mmio_write(*ctx_.device, 0, base + off, value,
                                           4, thread.now());
    thread.exec_fixed(r.cpu_cost);
  };
  write(pcie::kMsixEntryAddrLo,
        static_cast<u32>(InterruptController::message_address()));
  write(pcie::kMsixEntryAddrHi,
        static_cast<u32>(InterruptController::message_address() >> 32));
  write(pcie::kMsixEntryData, vector);
  write(pcie::kMsixEntryControl, 0);  // unmask
  return vector;
}

void VirtioPciTransport::set_config_vector(u16 msix_entry,
                                           HostThread& thread) {
  common_write16(thread, kMsixConfig, msix_entry);
}

virtio::DriverRing& VirtioPciTransport::setup_queue(u16 index, u16 msix_entry,
                                                    HostThread& thread) {
  common_write16(thread, kQueueSelect, index);
  const u16 device_max = common_read16(thread, kQueueSize);
  const u16 size = std::min<u16>(device_max, 256);
  common_write16(thread, kQueueSize, size);

  if (queues_.size() <= index) {
    queues_.resize(static_cast<std::size_t>(index) + 1);
  }
  if (using_packed_rings()) {
    queues_[index] = std::make_unique<virtio::PackedVirtqueueDriver>(
        ctx_.rc->memory(), size, negotiated_);
  } else {
    queues_[index] = std::make_unique<virtio::VirtqueueDriver>(
        ctx_.rc->memory(), size, negotiated_);
  }
  const virtio::RingAddresses addrs = queues_[index]->ring_addresses();
  common_write64(thread, kQueueDesc, addrs.desc);
  common_write64(thread, kQueueDriver, addrs.avail);
  common_write64(thread, kQueueDevice, addrs.used);
  common_write16(thread, kQueueMsixVector, msix_entry);
  // §4.1.4.3: the device answers VIRTIO_MSI_NO_VECTOR when it rejected
  // the mapping. A silent mismatch here means this queue never
  // interrupts — surface it at setup time.
  if (common_read16(thread, kQueueMsixVector) != msix_entry) {
    VFPGA_WARN("virtio-pci", "device rejected queue MSI-X vector mapping");
  }
  common_write16(thread, kQueueEnable, 1);
  return *queues_[index];
}

bool VirtioPciTransport::finish_probe(HostThread& thread) {
  status_shadow_ |= virtio::status::kDriverOk;
  common_write32(thread, kDeviceStatus, status_shadow_);
  // Read the status back (§3.1.1): the device may have refused DRIVER_OK
  // or latched DEVICE_NEEDS_RESET during queue setup.
  const u8 status = read_device_status(thread);
  if ((status & virtio::status::kDriverOk) == 0 ||
      (status & virtio::status::kDeviceNeedsReset) != 0) {
    return false;
  }
  bound_ = true;
  return true;
}

u8 VirtioPciTransport::read_device_status(HostThread& thread) {
  return common_read8(thread, kDeviceStatus);
}

bool VirtioPciTransport::device_needs_reset(HostThread& thread) {
  return (read_device_status(thread) & virtio::status::kDeviceNeedsReset) != 0;
}

void VirtioPciTransport::notify(u16 queue_index, HostThread& thread) {
  const BarOffset notify_addr =
      layout_.notify.offset +
      static_cast<u64>(queue_index) * layout_.notify_off_multiplier;
  const auto r = ctx_.rc->cpu_mmio_write(*ctx_.device, layout_.notify.bar,
                                         notify_addr, queue_index, 4,
                                         thread.now());
  thread.exec_fixed(r.cpu_cost);
}

u8 VirtioPciTransport::device_config_read8(u32 offset, HostThread& thread) {
  const auto r = ctx_.rc->cpu_mmio_read(
      *ctx_.device, layout_.device_specific.bar,
      layout_.device_specific.offset + offset, 1, thread.now());
  thread.mmio_stall(r.cpu_stall);
  return static_cast<u8>(r.value);
}

u16 VirtioPciTransport::device_config_read16(u32 offset, HostThread& thread) {
  const auto r = ctx_.rc->cpu_mmio_read(
      *ctx_.device, layout_.device_specific.bar,
      layout_.device_specific.offset + offset, 2, thread.now());
  thread.mmio_stall(r.cpu_stall);
  return static_cast<u16>(r.value);
}

u32 VirtioPciTransport::device_config_read32(u32 offset, HostThread& thread) {
  const auto r = ctx_.rc->cpu_mmio_read(
      *ctx_.device, layout_.device_specific.bar,
      layout_.device_specific.offset + offset, 4, thread.now());
  thread.mmio_stall(r.cpu_stall);
  return static_cast<u32>(r.value);
}

u64 VirtioPciTransport::device_config_read64(u32 offset, HostThread& thread) {
  return static_cast<u64>(device_config_read32(offset, thread)) |
         static_cast<u64>(device_config_read32(offset + 4, thread)) << 32;
}

void VirtioPciTransport::transfer(migrate::StateIo& io) {
  if (io.loading() && !bound_) {
    io.fail();
    return;
  }
  io.features(negotiated_);
  io.u8(status_shadow_);
  io.expect<u16>(msix_table_size_);
  io.expect<u16>(static_cast<u16>(queues_.size()));
  for (auto& q : queues_) {
    // The restore target probed the same rings: each must match its tag.
    io.expect<u8>(static_cast<u8>(q ? q->ring_format()
                                    : virtio::RingFormat::kNone));
    if (io.failed()) {
      return;
    }
    if (q) {
      q->transfer(io);
    }
  }
}

}  // namespace vfpga::hostos
