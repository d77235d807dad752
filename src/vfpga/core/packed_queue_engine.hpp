// Packed-ring queue engine (VirtIO 1.2 §2.8).
//
// The transaction economics the packed format buys the FPGA: discovering
// the next buffer is ONE 16-byte descriptor read (the descriptor carries
// address, length, id and ownership in one shot, where the split FSM
// needs avail-idx + avail-entry + descriptor), and completion is ONE
// posted descriptor write (vs. used-element + used-idx). Interrupt
// suppression reads the driver event structure (flags-only mode), cached
// for suppressed completions exactly like the split engine caches
// used_event.
#pragma once

#include "vfpga/core/queue_engine.hpp"
#include "vfpga/virtio/packed_layout.hpp"

namespace vfpga::core {

class PackedQueueEngine final : public IQueueEngine {
 public:
  explicit PackedQueueEngine(pcie::DmaPort port,
                             fault::FaultPlane* fault = nullptr)
      : IQueueEngine(port, fault) {}

  /// Latch the ring (`rings.desc`), driver event (`.avail`) and device
  /// event (`.used`) structures, and enable driver kicks: a posted write
  /// of ENABLE to the device event flags at `at` (kick suppression is
  /// flags-only and never changes after this).
  void configure(const virtio::RingAddresses& rings, u16 queue_size,
                 virtio::FeatureSet negotiated, sim::SimTime at) override;
  /// Read the descriptor at the avail cursor: 1 when its ownership bits
  /// match the wrap counter, else 0. An available descriptor stays in a
  /// register for the next consume.
  Poll poll_available(sim::SimTime start) override;
  [[nodiscard]] bool poll_is_exact() const override { return false; }
  /// Walk the chain from the cached head (re-reading it if no poll
  /// armed it): NEXT descriptors occupy consecutive slots, fetched a
  /// cacheline at a time; an INDIRECT head fetches its table in one
  /// read. Advances the avail cursor by the slots consumed.
  sim::SimTime consume_chain(sim::SimTime start, FetchedChain& chain) override;
  /// One posted 16-byte descriptor write with the USED ownership bits;
  /// the used cursor skips the chain's slots (§2.8.7). Interrupt unless
  /// the driver event flags read DISABLE.
  Completion complete_chain(const FetchedChain& chain, u32 written,
                            sim::SimTime start,
                            bool refresh_suppression) override;
  /// Nothing to do: kick suppression is flags-only.
  sim::SimTime post_drain_update(u16 drained_through,
                                 sim::SimTime start) override;

  [[nodiscard]] virtio::RingFormat ring_format() const override {
    return virtio::RingFormat::kPacked;
  }
  /// Both cursors must lie inside the restored queue, or the reader
  /// fails.
  void transfer(migrate::StateIo& io, u16 queue_size) override;

 private:
  /// Move the avail cursor one slot, flipping the wrap counter at the
  /// end of the ring.
  void advance_avail();

  virtio::RingAddresses addrs_{};
  u16 queue_size_ = 0;
  u16 avail_cursor_ = 0;
  bool avail_wrap_ = true;
  u16 used_cursor_ = 0;
  bool used_wrap_ = true;
  std::optional<virtio::packed::PackedDescriptor> cached_head_;
  std::optional<u16> cached_driver_event_;
  Bytes staging_;  ///< continuation-window and indirect-table reads
};

}  // namespace vfpga::core
