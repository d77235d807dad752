// Fixed-capacity cross-core message ring.
//
// Models the lock-free SPSC rings run-to-completion frameworks use for
// cross-core message passing (SPDK's per-thread spdk_ring, DPDK's
// rte_ring): a power-of-two slot array with masked head/tail cursors,
// never allocating on the hot path, and dropping (with a counter) when
// full instead of blocking — the producer owns the retry policy. The
// sim::LaneSet carries every cross-lane message through one ring per
// (source, destination) lane pair; pushes and pops happen on one OS
// thread at a time, so the "lock-free" part is a modelling statement: a
// push costs one slot write + cursor bump and can never stall the
// consumer.
//
// Causality: each message carries the simulated time it was posted; a
// consumer whose clock has not reached that time does not see it yet
// (the producer's store has not become visible to the consumer core).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/types.hpp"
#include "vfpga/sim/event.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::reactor {

/// A message is a deferred function call on the receiving lane — the
/// spdk_thread_send_msg model (fn + ctx collapsed into a closure). It is
/// a sim::SmallFn, so posting a message never heap-allocates as long as
/// the capture fits the 48-byte inline buffer — the same zero-alloc
/// guarantee the scheduler's hot path has.
using Message = sim::SmallFn;

class MessageRing {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2) so
  /// cursor arithmetic is a mask, exactly like rte_ring.
  explicit MessageRing(u32 capacity) {
    u32 cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] u32 capacity() const {
    return static_cast<u32>(slots_.size());
  }
  [[nodiscard]] u32 size() const { return static_cast<u32>(tail_ - head_); }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return size() == capacity(); }

  /// Enqueue; returns false (and counts the drop) when the ring is
  /// full — the producer decides whether to retry, not the ring.
  bool try_push(Message fn, sim::SimTime posted_at) {
    if (full()) {
      ++dropped_full_;
      return false;
    }
    Slot& s = slots_[static_cast<std::size_t>(tail_ & mask_)];
    s.fn = std::move(fn);
    s.posted_at = posted_at;
    ++tail_;
    ++enqueued_;
    high_watermark_ = std::max<u64>(high_watermark_, size());
    return true;
  }

  /// Dequeue the oldest message whose posted_at <= now (store visible to
  /// the consumer core). FIFO order means a not-yet-visible head blocks
  /// the ones behind it — the consumer advances its clock instead.
  std::optional<Message> try_pop(sim::SimTime now) {
    if (empty()) {
      return std::nullopt;
    }
    Slot& s = slots_[static_cast<std::size_t>(head_ & mask_)];
    if (s.posted_at > now) {
      return std::nullopt;
    }
    Message fn = std::move(s.fn);
    s.fn = nullptr;
    ++head_;
    ++dequeued_;
    return fn;
  }

  /// Visibility time of the oldest queued message (nullopt when empty):
  /// an idle consumer spins forward to this instead of busy-looping on
  /// an invisible head.
  [[nodiscard]] std::optional<sim::SimTime> next_visible_at() const {
    if (empty()) {
      return std::nullopt;
    }
    return slots_[static_cast<std::size_t>(head_ & mask_)].posted_at;
  }

  [[nodiscard]] u64 enqueued() const { return enqueued_; }
  [[nodiscard]] u64 dequeued() const { return dequeued_; }
  [[nodiscard]] u64 dropped_full() const { return dropped_full_; }
  [[nodiscard]] u64 high_watermark() const { return high_watermark_; }

 private:
  struct Slot {
    Message fn;
    sim::SimTime posted_at{};
  };
  std::vector<Slot> slots_;
  u32 mask_ = 1;
  u64 head_ = 0;  ///< consumer cursor
  u64 tail_ = 0;  ///< producer cursor
  u64 enqueued_ = 0;
  u64 dequeued_ = 0;
  u64 dropped_full_ = 0;
  u64 high_watermark_ = 0;
};

}  // namespace vfpga::reactor
