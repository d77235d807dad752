// Per-virtqueue FSMs of the VirtIO controller.
//
// IQueueEngine is the format-independent contract the controller drives;
// QueueEngine implements it over the split ring (the paper's format) and
// PackedQueueEngine (packed_queue_engine.hpp) over the packed ring. The
// controller selects per queue at enable time from the negotiated
// VIRTIO_F_RING_PACKED bit, so a single device binary serves both driver
// generations — the same property the Intel P-Tile hard IP advertises.
#pragma once

#include <array>
#include <optional>

#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/fpga/clock.hpp"
#include "vfpga/virtio/virtqueue_device.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::core {

/// FSM cycle costs (125 MHz domain). These are the controller's own
/// pipeline stages, distinct from PCIe wire time.
struct QueueTiming {
  fpga::ClockDomain clock;
  u64 notify_decode_cycles;   ///< doorbell decode + queue dispatch
  u64 arbitration_cycles;     ///< grant from the queue arbiter
  u64 per_descriptor_cycles;  ///< descriptor unpack/validate
  u64 used_update_cycles;     ///< build used element + idx update
  u64 irq_decision_cycles;    ///< EVENT_IDX compare / vector select
};
/// The synthesized FSM's stage costs; both ring formats share them.
inline constexpr QueueTiming kQueueTiming{.clock = fpga::kUserClock,
                                          .notify_decode_cycles = 48,
                                          .arbitration_cycles = 24,
                                          .per_descriptor_cycles = 10,
                                          .used_update_cycles = 16,
                                          .irq_decision_cycles = 10};

struct ControllerPolicy {
  /// Fetch two adjacent descriptors in one PCIe read when the chain is
  /// laid out contiguously (ablation: ABL-DESC).
  bool batched_chain_fetch = false;
  /// Offer and honour VIRTIO_F_EVENT_IDX.
  bool use_event_idx = true;
  /// Consume RX buffers against a cached avail-idx snapshot instead of
  /// re-reading avail.idx before every response (ablation: the paper's
  /// conservative FSM re-polls each time).
  bool trust_cached_credits = false;
  /// Offer VIRTIO_F_INDIRECT_DESC (the device side handles indirect
  /// tables transparently; drivers with long chains fetch them in one
  /// DMA read).
  bool offer_indirect = true;
  /// Offer VIRTIO_F_RING_PACKED; a packed-aware driver then gets the
  /// one-read-per-buffer ring format (ablation: ABL-RING).
  bool offer_packed = false;
};

/// Largest descriptor length the FSM's bounds check accepts; anything
/// above it is treated as a corrupted descriptor table.
inline constexpr u32 kMaxSaneDescriptorLen = 1u << 20;

/// A fully-fetched buffer chain ready for data movement. The controller
/// owns these and hands them to consume_chain for refilling, so the
/// descriptor list keeps its capacity from chain to chain.
struct FetchedChain {
  /// Completion handle: split = head descriptor index, packed = buffer id.
  u16 handle = 0;
  /// Ring slots the chain occupies (packed completion bookkeeping; for
  /// split chains through an indirect table this is 1).
  u16 ring_slots = 0;
  /// The fetched descriptors failed the FSM's bounds check (corrupted
  /// table): the controller must not touch the chain's buffers and
  /// should enter the error state (DEVICE_NEEDS_RESET).
  bool error = false;
  /// The chain arrived through an indirect descriptor table (one
  /// table-sized DMA read) rather than a per-descriptor walk.
  bool via_indirect = false;
  std::vector<virtio::Descriptor> descriptors;
};

/// The FSM's descriptor bounds check, run on every fetched chain: a
/// zero/oversized length or null address means the table read returned
/// garbage.
[[nodiscard]] bool chain_within_bounds(const FetchedChain& chain,
                                       u16 queue_size);

class IQueueEngine {
 public:
  IQueueEngine() = default;
  IQueueEngine(const IQueueEngine&) = delete;
  IQueueEngine& operator=(const IQueueEngine&) = delete;
  virtual ~IQueueEngine() = default;

  /// Completions this engine has published to the used ring (used-ring
  /// writes the fault plane swallowed are NOT counted — the driver can
  /// never observe them). Monotonic from queue enable.
  [[nodiscard]] u64 completions_published() const { return completions_; }

  /// Simulated time at which completion number `seq` (0-based, in
  /// publish order) became globally visible in host memory — the
  /// delivered edge of its posted used-ring write. The functional
  /// simulation writes ring bytes eagerly while computing timestamps, so
  /// a poll-mode driver must gate its harvests on this time instead of
  /// on the bytes. Returns nullopt when the completion has not been
  /// published; completions older than the retention window report
  /// SimTime{} (visible since long ago).
  [[nodiscard]] std::optional<sim::SimTime> completion_visible_time(
      u64 seq) const {
    if (seq >= completions_) {
      return std::nullopt;
    }
    if (completions_ - seq > kVisibilityWindow) {
      return sim::SimTime{};
    }
    return visible_at_[seq % kVisibilityWindow];
  }

  /// How many chains the driver has published that we have not consumed.
  /// Timed (one DMA read). Split rings report the exact count
  /// (poll_is_exact() == true); packed rings can only see whether the
  /// *next* slot is available (0 or 1) and must be re-polled after
  /// draining.
  virtual virtio::Timed<u16> poll_available(sim::SimTime start) = 0;
  [[nodiscard]] virtual bool poll_is_exact() const = 0;

  /// Consume the next available chain into `chain`, overwriting every
  /// field (requires a prior poll that reported availability). Returns
  /// the time the chain is fetched.
  virtual sim::SimTime consume_chain(sim::SimTime start,
                                     FetchedChain& chain) = 0;

  struct Completion {
    sim::SimTime engine_free{};
    bool interrupt = false;
  };
  /// Complete a chain: publish the used entry and decide whether to
  /// interrupt. With `refresh_suppression` false the FSM reuses its
  /// cached copy of the driver's suppression state instead of a fresh
  /// DMA read — valid for completions the driver keeps suppressed (TX
  /// recycling), where staleness cannot cause a missed wake.
  virtual Completion complete_chain(const FetchedChain& chain, u32 written,
                                    sim::SimTime start,
                                    bool refresh_suppression) = 0;

  /// Post-drain bookkeeping at the end of a notify burst (split:
  /// advance the avail_event kick threshold past the drained chains;
  /// packed: nothing — kick suppression is flags-only). Returns the time
  /// the engine is free.
  virtual sim::SimTime post_drain_update(u16 drained_through,
                                         sim::SimTime start) = 0;

  /// The ring format this engine runs (the snapshot's engine tag).
  [[nodiscard]] virtual virtio::RingFormat ring_format() const = 0;

  /// Snapshot/restore of the full FSM state. Must never touch host
  /// memory. `queue_size` is the size in the controller's queue
  /// registers, which the restored ring must match. Overrides transfer
  /// the base's completion counter and visibility window first
  /// (IQueueEngine::transfer).
  virtual void transfer(migrate::StateIo& io, u16 queue_size) = 0;

 protected:
  /// Engines call this from complete_chain once the used-ring write is
  /// issued, with the write's delivered (globally-visible) timestamp.
  void record_completion(sim::SimTime delivered) {
    visible_at_[completions_ % kVisibilityWindow] = delivered;
    ++completions_;
  }

 private:
  /// Retained visibility timestamps. Larger than any queue size we
  /// configure (max_queue_size caps at 256), so every in-flight
  /// completion — the only ones a driver can still be waiting on — is
  /// always inside the window.
  static constexpr u64 kVisibilityWindow = 1024;
  std::array<sim::SimTime, kVisibilityWindow> visible_at_{};
  u64 completions_ = 0;
};

/// Split-ring engine — the paper's controller FSM.
class QueueEngine final : public IQueueEngine {
 public:
  QueueEngine(virtio::VirtqueueDevice vq, ControllerPolicy policy,
              fault::FaultPlane* fault = nullptr)
      : vq_(std::move(vq)), policy_(policy), fault_(fault) {}

  [[nodiscard]] virtio::VirtqueueDevice& vq() { return vq_; }
  [[nodiscard]] const virtio::VirtqueueDevice& vq() const { return vq_; }

  virtio::Timed<u16> poll_available(sim::SimTime start) override;
  [[nodiscard]] bool poll_is_exact() const override { return true; }
  sim::SimTime consume_chain(sim::SimTime start, FetchedChain& chain) override;
  Completion complete_chain(const FetchedChain& chain, u32 written,
                            sim::SimTime start,
                            bool refresh_suppression) override;
  sim::SimTime post_drain_update(u16 drained_through,
                                 sim::SimTime start) override;

  [[nodiscard]] const ControllerPolicy& policy() const { return policy_; }

  [[nodiscard]] virtio::RingFormat ring_format() const override {
    return virtio::RingFormat::kSplit;
  }
  void transfer(migrate::StateIo& io, u16 queue_size) override;

 private:
  virtio::VirtqueueDevice vq_;
  ControllerPolicy policy_;
  fault::FaultPlane* fault_ = nullptr;
  std::optional<u16> cached_used_event_;
  /// Used entries pushed with a stale suppression snapshot since the
  /// last fresh used_event read: the next fresh decision widens its
  /// crossing window over them (a mergeable RX span must interrupt if
  /// ANY of its entries passed used_event, not just the last).
  u16 stale_completions_ = 0;
};

}  // namespace vfpga::core
