#include "vfpga/core/packed_queue_engine.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::core {

virtio::Timed<u16> PackedQueueEngine::poll_available(sim::SimTime start) {
  const auto peek = vq_.peek_available(start);
  head_cached_ = peek.value;
  return virtio::Timed<u16>{static_cast<u16>(peek.value ? 1 : 0), peek.done};
}

sim::SimTime PackedQueueEngine::consume_chain(sim::SimTime start,
                                              FetchedChain& chain) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.arbitration_cycles);
  if (!head_cached_) {
    // Defensive re-peek (e.g. a trusted-credit consume without a fresh
    // poll): the FSM must read the descriptor anyway.
    const auto peek = vq_.peek_available(t);
    t = peek.done;
    VFPGA_ASSERT(peek.value);
  }
  head_cached_ = false;

  const auto consumed = vq_.consume_chain(t, chain.descriptors);
  t = consumed.done;
  chain.handle = consumed.value.id;
  chain.ring_slots = consumed.value.descriptor_count;
  chain.via_indirect = consumed.value.via_indirect;
  t += kQueueTiming.clock.cycles(kQueueTiming.per_descriptor_cycles *
                                 chain.descriptors.size());
  if (fault_ != nullptr && chain.via_indirect &&
      fault_->should_inject(fault::FaultClass::kIndirectCorrupt) &&
      !chain.descriptors.empty()) {
    // The one-shot table read returned garbage: poison the head entry
    // so the bounds check below rejects the whole chain.
    chain.descriptors.front().addr = 0;
  }
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kDescCorrupt) &&
      !chain.descriptors.empty()) {
    // Corrupted packed-descriptor read: force a length the bounds check
    // rejects.
    chain.descriptors.front().addr = 0;
  }
  chain.error =
      consumed.value.error || !chain_within_bounds(chain, vq_.size());
  return t;
}

IQueueEngine::Completion PackedQueueEngine::complete_chain(
    const FetchedChain& chain, u32 written, sim::SimTime start,
    bool refresh_suppression) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.used_update_cycles);
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kUsedWriteFail)) {
    // Completion descriptor write lost: cursor does not advance, the
    // driver never sees this buffer again until it resets the device.
    return Completion{t, false};
  }
  virtio::PackedVirtqueueDevice::Chain dev_chain;
  dev_chain.id = chain.handle;
  dev_chain.descriptor_count = chain.ring_slots;
  const auto push = vq_.push_used(dev_chain, written, t);
  t = push.issuer_free;
  // Delivered edge of the completion descriptor write (poll-mode gate).
  record_completion(push.delivered);

  t += kQueueTiming.clock.cycles(kQueueTiming.irq_decision_cycles);
  u16 flags;
  if (refresh_suppression || !cached_driver_event_.has_value()) {
    const auto event = vq_.read_driver_event_flags(t);
    t = event.done;
    cached_driver_event_ = event.value;
    flags = event.value;
  } else {
    flags = *cached_driver_event_;
  }
  const bool interrupt = flags != virtio::packed::event::kDisable;
  return Completion{t, interrupt};
}

sim::SimTime PackedQueueEngine::post_drain_update(u16 /*drained_through*/,
                                                  sim::SimTime start) {
  // Flags-only kick suppression: the device event structure was set to
  // ENABLE at configure time and never changes, so there is nothing to
  // update after a drain.
  return start;
}

void PackedQueueEngine::transfer(migrate::StateIo& io, u16 queue_size) {
  IQueueEngine::transfer(io, queue_size);
  vq_.transfer(io, queue_size);
  io.boolean(head_cached_);
  io.optional(cached_driver_event_);
}

}  // namespace vfpga::core
