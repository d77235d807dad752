// Per-virtqueue FSMs of the VirtIO controller.
//
// IQueueEngine is the format-independent contract the controller drives;
// QueueEngine implements it over the split ring (the paper's format) and
// PackedQueueEngine (packed_queue_engine.hpp) over the packed ring. Each
// engine is the device's whole view of one queue: it latches the ring
// addresses once at queue enable (§IV-A: from then on a single doorbell
// write starts a transfer), keeps the ring cursors, and reads and writes
// the rings over DMA, every access a PCIe transaction timed by the link
// model. The controller selects the format per queue at enable time from
// the negotiated VIRTIO_F_RING_PACKED bit, so a single device binary
// serves both driver generations — the same property the Intel P-Tile
// hard IP advertises.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/fpga/clock.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ring_layout.hpp"

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
  /// Widen the first descriptor read of a split chain to a two-entry
  /// burst: driver free lists lay chains out contiguously, so the second
  /// entry is usually the continuation (ablation: ABL-DESC).
  bool batched_chain_fetch = false;
  /// Consume RX buffers against a cached avail-idx snapshot instead of
  /// re-reading avail.idx before every response (ablation: the paper's
  /// conservative FSM re-polls each time).
  bool trust_cached_credits = false;
  /// Offer VIRTIO_F_RING_PACKED; a packed-aware driver then gets the
  /// one-read-per-buffer ring format (ablation: ABL-RING).
  bool offer_packed = false;
};

/// BRAM staging buffer for frames (Fig. 2: "BRAM or external DRAM"); the
/// XDMA example design's AXI-MM BRAM has the same size. A chain's
/// device-readable bytes are staged here whole, so it bounds them.
inline constexpr u64 kBramBytes = 128 * 1024;

/// Most descriptors one burst read fetches: one 64-byte cacheline of
/// the descriptor table (the speculative chain-continuation window).
inline constexpr u16 kDescFetchWindow = 4;

/// A fully-fetched buffer chain ready for data movement. The controller
/// owns these and hands them to consume_chain for refilling, so the
/// descriptor list keeps its capacity from chain to chain.
struct FetchedChain {
  /// Completion handle: split = head descriptor index, packed = buffer id.
  u16 handle = 0;
  /// Ring slots the chain occupies (packed completion bookkeeping; for
  /// split chains this is 1).
  u16 ring_slots = 0;
  /// The fetch is driver (or fault-plane) misbehaviour the FSM must
  /// survive: an index past the queue, an indirect descriptor mid-chain
  /// or with a bad table length, a chain that never ends, or a failed
  /// bounds check. The controller must not touch the chain's buffers
  /// and enters the error state (DEVICE_NEEDS_RESET).
  bool error = false;
  /// The chain arrived through an indirect descriptor table (one
  /// table-sized DMA read) rather than a per-descriptor walk.
  bool via_indirect = false;
  std::vector<virtio::Descriptor> descriptors;
};

/// The FSM's bounds check, run on every fetched chain: no descriptors,
/// more than the queue holds, a null address, an empty device-readable
/// buffer, or more device-readable bytes than the staging BRAM holds
/// means the table read returned garbage. Device-writable length is
/// only a capacity: drivers may legitimately post huge buffers.
[[nodiscard]] bool chain_within_bounds(const FetchedChain& chain,
                                       u16 queue_size);

/// What a poll found: the chains available, and when the read returned.
struct Poll {
  u16 available = 0;
  sim::SimTime done{};
};

class IQueueEngine {
 public:
  IQueueEngine(pcie::DmaPort port, fault::FaultPlane* fault)
      : port_(port), fault_(fault) {}
  IQueueEngine(const IQueueEngine&) = delete;
  IQueueEngine& operator=(const IQueueEngine&) = delete;
  virtual ~IQueueEngine() = default;

  /// Latch the ring addresses and size the driver programmed through
  /// common config (queue enable) and reset the cursors. `at` is when
  /// the enable lands, for a format that writes its rings then.
  virtual void configure(const virtio::RingAddresses& rings, u16 queue_size,
                         virtio::FeatureSet negotiated, sim::SimTime at) = 0;

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
  virtual Poll poll_available(sim::SimTime start) = 0;
  [[nodiscard]] virtual bool poll_is_exact() const = 0;

  /// Consume the next available chain into `chain`, overwriting every
  /// field (requires a prior poll that reported availability). Returns
  /// the time the chain is fetched. A malformed chain sets
  /// `chain.error`; it is never asserted.
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

  /// The end of every consume: charge the per-descriptor stage, run the
  /// fetch-side fault hooks (an indirect table read, then any descriptor
  /// read, returning garbage) and the bounds check. Latches
  /// `chain.error` when the walk failed or the check does.
  sim::SimTime finish_fetch(FetchedChain& chain, bool walk_error,
                            u16 queue_size, sim::SimTime t);

  /// The completion-side fault hook: the used-ring update is lost before
  /// it reaches host memory, so the cursor must not advance and the
  /// driver never sees the completion (its buffers stay in flight until
  /// the driver resets the device).
  [[nodiscard]] bool used_write_lost() {
    return fault_ != nullptr &&
           fault_->should_inject(fault::FaultClass::kUsedWriteFail);
  }

  pcie::DmaPort port_;

 private:
  /// Retained visibility timestamps. Larger than any queue size we
  /// configure (max_queue_size caps at 256), so every in-flight
  /// completion — the only ones a driver can still be waiting on — is
  /// always inside the window.
  static constexpr u64 kVisibilityWindow = 1024;
  std::array<sim::SimTime, kVisibilityWindow> visible_at_{};
  u64 completions_ = 0;
  fault::FaultPlane* fault_ = nullptr;
};

/// Split-ring engine — the paper's controller FSM.
class QueueEngine final : public IQueueEngine {
 public:
  QueueEngine(pcie::DmaPort port, ControllerPolicy policy,
              fault::FaultPlane* fault = nullptr)
      : IQueueEngine(port, fault), policy_(policy) {}

  void configure(const virtio::RingAddresses& rings, u16 queue_size,
                 virtio::FeatureSet negotiated, sim::SimTime at) override;
  /// One read of avail.idx: exactly how many chains are published and
  /// not yet consumed.
  Poll poll_available(sim::SimTime start) override;
  [[nodiscard]] bool poll_is_exact() const override { return true; }
  /// Read the head from the next avail slot, then walk its chain.
  sim::SimTime consume_chain(sim::SimTime start, FetchedChain& chain) override;
  /// Write the used element, then used.idx (two ordered posted writes).
  /// With EVENT_IDX negotiated, interrupt iff this update passed the
  /// driver's used_event; without it, always (§2.7.7).
  Completion complete_chain(const FetchedChain& chain, u32 written,
                            sim::SimTime start,
                            bool refresh_suppression) override;
  /// With EVENT_IDX negotiated, write avail_event = `drained_through`.
  sim::SimTime post_drain_update(u16 drained_through,
                                 sim::SimTime start) override;

  [[nodiscard]] virtio::RingFormat ring_format() const override {
    return virtio::RingFormat::kSplit;
  }
  void transfer(migrate::StateIo& io, u16 queue_size) override;

 private:
  /// Walk the chain at `head` into `chain`. The first read fetches the
  /// head alone, or with batched_chain_fetch a two-entry burst; every
  /// later read fetches a continuation window of up to kDescFetchWindow
  /// entries, and entries already in the window cost nothing. An
  /// INDIRECT head instead fetches its whole table in one read. Returns
  /// false on an index past the queue, a bad indirect descriptor or a
  /// chain longer than the queue.
  bool walk_chain(u16 head, sim::SimTime& t, FetchedChain& chain);
  [[nodiscard]] bool event_idx() const {
    return negotiated_.has(virtio::feature::kRingEventIdx);
  }

  ControllerPolicy policy_;
  virtio::RingAddresses addrs_{};
  u16 queue_size_ = 0;
  virtio::FeatureSet negotiated_{};
  u16 avail_cursor_ = 0;  ///< next avail position to consume
  u16 used_idx_ = 0;      ///< next used idx to publish
  std::optional<u16> cached_used_event_;
  Bytes table_;  ///< staging for indirect-table reads
};

}  // namespace vfpga::core
