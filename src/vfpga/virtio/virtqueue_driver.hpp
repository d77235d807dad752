// Driver-side split virtqueue.
//
// The front-end half of a virtqueue as a kernel driver implements it
// (Linux's vring): a free-descriptor list, exposing buffer chains via
// the avail ring, harvesting completions from the used ring, and the
// VIRTIO_F_EVENT_IDX notification-suppression protocol. All ring state
// lives in simulated host memory — the device side reads the very same
// bytes over its DMA port — while bookkeeping (free list, tokens) lives
// in driver RAM, exactly as in a real kernel. The driver reaches its
// three ring areas through mem::RegionView, resolved once where the
// ring addresses are assigned (construction, restore).
//
// This class is purely functional; the time the driver *spends* doing
// these operations is charged by the cost model in vfpga/hostos.
#pragma once

#include <optional>
#include <vector>

#include "vfpga/mem/host_memory.hpp"
#include "vfpga/virtio/driver_ring.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ring_layout.hpp"

namespace vfpga::virtio {

class VirtqueueDriver final : public DriverRing {
 public:
  /// Allocates the three ring areas in `memory` with spec alignments and
  /// initializes them to zero. `queue_size` must be a power of two.
  VirtqueueDriver(mem::HostMemory& memory, u16 queue_size,
                  FeatureSet negotiated);

  [[nodiscard]] u16 size() const override { return queue_size_; }
  [[nodiscard]] RingFormat ring_format() const override {
    return RingFormat::kSplit;
  }
  [[nodiscard]] RingAddresses addresses() const {
    return RingAddresses{rings_.desc.base(), rings_.avail.base(),
                         rings_.used.base()};
  }
  [[nodiscard]] u16 free_descriptors() const override { return num_free_; }

  /// Expose a buffer chain to the device. Returns the head descriptor
  /// index, or nullopt when the free list cannot hold the chain. The
  /// `token` is returned by harvest_used when the device completes the
  /// chain (a driver would store an skb pointer here).
  std::optional<u16> add_chain(std::span<const ChainBuffer> buffers,
                               u64 token) override;

  /// Expose a chain through an indirect descriptor table (§2.7.5.3.1,
  /// requires VIRTIO_F_INDIRECT_DESC): the buffers are written into a
  /// per-head recycled table in host memory and a single INDIRECT
  /// descriptor occupies the ring — constant ring-slot cost for any
  /// chain length, and the device can fetch the whole table in one DMA
  /// read.
  std::optional<u16> add_chain_indirect(std::span<const ChainBuffer> buffers,
                                        u64 token) override;

  /// Publish all chains added since the last publish: write avail.idx.
  /// Returns the number of chains published.
  u16 publish() override;

  /// Per the EVENT_IDX protocol (§2.7.10): should the driver notify the
  /// device after this publish? Always true without EVENT_IDX unless the
  /// device set VRING_USED_F_NO_NOTIFY.
  [[nodiscard]] bool should_kick() const override;

  struct Completion {
    u64 token = 0;
    u32 written = 0;  ///< bytes the device wrote into the chain
    u16 head = 0;
  };
  /// Harvest one completion from the used ring, recycling descriptors.
  std::optional<Completion> harvest_used();

  /// True when the device has published used entries we have not
  /// harvested (what an interrupt handler checks before doing work).
  [[nodiscard]] bool used_pending() const override;

  /// Write the used_event field = "interrupt me when used.idx passes
  /// this" (EVENT_IDX). Drivers call this as they re-enable interrupts.
  void set_used_event(u16 value);

  /// The used index up to which completions have been harvested — what a
  /// driver writes into used_event to request "interrupt on next".
  [[nodiscard]] u16 last_used_index() const { return last_used_idx_; }

  // ---- DriverRing (format-independent view) ----------------------------------
  std::optional<DriverRing::Completion> harvest() override {
    const auto c = harvest_used();
    if (!c.has_value()) {
      return std::nullopt;
    }
    return DriverRing::Completion{c->token, c->written, c->head};
  }
  void enable_interrupts() override { set_used_event(last_used_idx_); }
  void disable_interrupts() override {
    set_used_event(static_cast<u16>(last_used_idx_ + 0x8000));
  }
  [[nodiscard]] RingAddresses ring_addresses() const override {
    return addresses();
  }

  /// Number of chains the driver currently has in flight.
  [[nodiscard]] u16 in_flight() const {
    return static_cast<u16>(queue_size_ - num_free_);
  }

  /// Snapshot/restore of the driver-RAM bookkeeping (free list, tokens,
  /// cursors). Ring bytes live in host memory and are restored with it;
  /// a restore never writes memory. Fails the reader on a queue-size
  /// mismatch (structural — the rings were allocated at construction),
  /// on a ring area that touches a non-resident page, and on a free head
  /// or free count outside the ring.
  void transfer(migrate::StateIo& io) override;

 private:
  /// The three ring areas: descriptor table, avail ring (used_event
  /// included) and used ring (avail_event included).
  struct Views {
    mem::RegionView desc, avail, used;
  };
  /// Views of the areas at `addrs`; nullopt when one touches a
  /// non-resident page.
  static std::optional<Views> resolve(mem::HostMemory& memory,
                                      const RingAddresses& addrs,
                                      u16 queue_size);

  void write_descriptor(u16 index, const Descriptor& desc);
  /// The `next` field of descriptor `index`: the free list's link.
  [[nodiscard]] u16 next_of(u16 index) const;

  mem::HostMemory* memory_;
  u16 queue_size_;
  FeatureSet negotiated_;
  Views rings_;  ///< resolved where the ring addresses are assigned

  std::vector<u64> tokens_;       ///< token per head descriptor
  std::vector<u16> chain_len_;    ///< descriptors per chain, by head
  std::vector<HostAddr> indirect_table_;  ///< recycled table per head
  std::vector<u32> indirect_capacity_;    ///< entries each table can hold
  u16 free_head_ = 0;             ///< head of the free-descriptor list
  u16 num_free_ = 0;
  u16 avail_idx_shadow_ = 0;      ///< next avail.idx value to publish
  u16 pending_publish_ = 0;       ///< chains added but not yet published
  u16 last_used_idx_ = 0;         ///< next used slot to harvest
  u16 kick_threshold_idx_ = 0;    ///< avail idx when we last published
};

}  // namespace vfpga::virtio
