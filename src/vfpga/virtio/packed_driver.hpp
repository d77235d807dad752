// Driver-side packed virtqueue (VirtIO 1.2 §2.8).
//
// The front-end half of a packed ring: descriptors are written into the
// single descriptor ring in slot order with ownership encoded in the
// AVAIL/USED flag bits against a 1-bit wrap counter; completions come
// back in the same ring as device-written descriptors. Notification
// suppression uses the two 4-byte event structures in their flags-only
// mode (ENABLE/DISABLE). The descriptor ring and both event structures
// are reached through mem::RegionView, resolved where their addresses
// are assigned (construction, restore).
#pragma once

#include <deque>
#include <vector>

#include "vfpga/mem/host_memory.hpp"
#include "vfpga/virtio/driver_ring.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/packed_layout.hpp"

namespace vfpga::virtio {

class PackedVirtqueueDriver final : public DriverRing {
 public:
  /// Allocates the descriptor ring + both event structures in `memory`.
  /// `negotiated` must include VIRTIO_F_RING_PACKED.
  PackedVirtqueueDriver(mem::HostMemory& memory, u16 queue_size,
                        FeatureSet negotiated);

  // ---- DriverRing ---------------------------------------------------------------
  [[nodiscard]] u16 size() const override { return queue_size_; }
  [[nodiscard]] RingFormat ring_format() const override {
    return RingFormat::kPacked;
  }
  [[nodiscard]] u16 free_descriptors() const override { return num_free_; }
  std::optional<u16> add_chain(std::span<const ChainBuffer> buffers,
                               u64 token) override;
  /// Expose a chain through an indirect table (§2.8.8, requires
  /// VIRTIO_F_INDIRECT_DESC): the buffers are written into a per-id
  /// recycled table and a single INDIRECT ring slot carries the whole
  /// chain — the device discovers any chain length in two DMA reads.
  std::optional<u16> add_chain_indirect(std::span<const ChainBuffer> buffers,
                                        u64 token) override;
  u16 publish() override;
  [[nodiscard]] bool should_kick() const override;
  std::optional<Completion> harvest() override;
  [[nodiscard]] bool used_pending() const override;
  void enable_interrupts() override;
  void disable_interrupts() override;
  [[nodiscard]] RingAddresses ring_addresses() const override {
    return RingAddresses{rings_.ring.base(), rings_.driver_event.base(),
                         rings_.device_event.base()};
  }

  // ---- packed-specific observability ---------------------------------------------
  [[nodiscard]] bool avail_wrap_counter() const { return avail_wrap_; }
  [[nodiscard]] bool used_wrap_counter() const { return used_wrap_; }
  [[nodiscard]] u16 next_avail_slot() const { return next_avail_slot_; }

  /// Snapshot/restore of the driver-RAM bookkeeping (id free list, wrap
  /// counters, cursors). Never writes host memory; fails the reader on a
  /// queue-size mismatch, on a ring area that touches a non-resident
  /// page, and on an id, count or slot outside the ring.
  void transfer(migrate::StateIo& io) override;

 private:
  /// The descriptor ring and the two event structures.
  struct Views {
    mem::RegionView ring, driver_event, device_event;
  };
  /// Views of the areas at `addrs`; nullopt when one touches a
  /// non-resident page.
  static std::optional<Views> resolve(mem::HostMemory& memory,
                                      const RingAddresses& addrs,
                                      u16 queue_size);

  struct PendingId {
    u16 id = 0;
    u16 descriptor_count = 0;
    u64 token = 0;
  };

  mem::HostMemory* memory_;
  u16 queue_size_;
  FeatureSet negotiated_;
  Views rings_;  ///< resolved where the ring addresses are assigned

  std::deque<u16> free_ids_;
  std::vector<u16> id_desc_count_;
  std::vector<u64> id_token_;
  std::vector<HostAddr> indirect_table_;  ///< recycled table per buffer id
  std::vector<u32> indirect_capacity_;    ///< entries each table can hold
  u16 num_free_;  ///< free descriptor slots

  u16 next_avail_slot_ = 0;
  bool avail_wrap_ = true;
  u16 next_used_slot_ = 0;
  bool used_wrap_ = true;
  u16 pending_publish_ = 0;
};

}  // namespace vfpga::virtio
