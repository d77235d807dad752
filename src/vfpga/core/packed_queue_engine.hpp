// Packed-ring queue engine (IQueueEngine over virtio::PackedVirtqueueDevice).
//
// The transaction economics the packed format buys the FPGA: discovering
// the next buffer is ONE descriptor read (the split FSM needs avail-idx
// + avail-entry + descriptor), and completion is ONE posted descriptor
// write (vs. used-element + used-idx). Interrupt suppression reads the
// driver event structure (flags-only mode), cached for suppressed
// completions exactly like the split engine caches used_event.
#pragma once

#include "vfpga/core/queue_engine.hpp"
#include "vfpga/virtio/packed_device.hpp"

namespace vfpga::core {

class PackedQueueEngine final : public IQueueEngine {
 public:
  PackedQueueEngine(virtio::PackedVirtqueueDevice vq, ControllerPolicy policy,
                    fault::FaultPlane* fault = nullptr)
      : vq_(std::move(vq)), policy_(policy), fault_(fault) {}

  [[nodiscard]] virtio::PackedVirtqueueDevice& vq() { return vq_; }

  virtio::Timed<u16> poll_available(sim::SimTime start) override;
  [[nodiscard]] bool poll_is_exact() const override { return false; }
  sim::SimTime consume_chain(sim::SimTime start, FetchedChain& chain) override;
  Completion complete_chain(const FetchedChain& chain, u32 written,
                            sim::SimTime start,
                            bool refresh_suppression) override;
  sim::SimTime post_drain_update(u16 drained_through,
                                 sim::SimTime start) override;

  [[nodiscard]] virtio::RingFormat ring_format() const override {
    return virtio::RingFormat::kPacked;
  }
  void transfer(migrate::StateIo& io, u16 queue_size) override;

 private:
  virtio::PackedVirtqueueDevice vq_;
  ControllerPolicy policy_;
  fault::FaultPlane* fault_ = nullptr;
  bool head_cached_ = false;  ///< a peek has armed the next consume
  std::optional<u16> cached_driver_event_;
};

}  // namespace vfpga::core
