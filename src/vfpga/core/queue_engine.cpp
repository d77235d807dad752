#include "vfpga/core/queue_engine.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::core {

bool chain_within_bounds(const FetchedChain& chain, u16 queue_size) {
  if (chain.descriptors.empty() || chain.descriptors.size() > queue_size) {
    return false;
  }
  for (const virtio::Descriptor& d : chain.descriptors) {
    if (d.addr == 0) {
      return false;
    }
    // Device-readable length drives the DMA fetch and payload staging,
    // so an insane value is a corrupt table. Device-writable length is
    // only a capacity: drivers may legitimately post huge buffers.
    const bool readable = (d.flags & virtio::descflags::kWrite) == 0;
    if (readable && (d.len == 0 || d.len > kMaxSaneDescriptorLen)) {
      return false;
    }
  }
  return true;
}

virtio::Timed<u16> QueueEngine::poll_available(sim::SimTime start) {
  const auto idx = vq_.fetch_avail_idx(start);
  const u16 outstanding =
      static_cast<u16>(idx.value - vq_.next_avail_position());
  return virtio::Timed<u16>{outstanding, idx.done};
}

sim::SimTime QueueEngine::consume_chain(sim::SimTime start,
                                        FetchedChain& chain) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.arbitration_cycles);

  const auto entry = vq_.fetch_avail_entry(vq_.next_avail_position(), t);
  t = entry.done;
  vq_.advance_avail_cursor();

  chain.handle = entry.value;
  chain.ring_slots = 1;  // split completion needs only the head index
  chain.via_indirect = false;
  chain.descriptors.clear();

  const u16 head = entry.value;
  bool walk_chain = !policy_.batched_chain_fetch;
  if (policy_.batched_chain_fetch) {
    // Speculatively fetch two descriptors in one burst: driver free
    // lists allocate chains contiguously in the common case, so the
    // second slot is usually the chain's continuation.
    std::array<virtio::Descriptor, 2> fetched{};
    const u16 burst = static_cast<u16>(head + 1 < vq_.size() ? 2 : 1);
    t = vq_.fetch_descriptors(head, std::span{fetched}.first(burst), t);
    const virtio::Descriptor& first = fetched.front();
    // Speculation miss: an indirect head means the burst bought nothing
    // — walk it through the indirect path below (which re-reads the
    // head; the wasted burst is the realistic penalty).
    walk_chain = (first.flags & virtio::descflags::kIndirect) != 0;
    if (!walk_chain) {
      chain.descriptors.push_back(first);
      u16 next = first.next;
      bool more = (first.flags & virtio::descflags::kNext) != 0;
      if (more && burst == 2 && next == head + 1) {
        const virtio::Descriptor& second = fetched[1];
        chain.descriptors.push_back(second);
        next = second.next;
        more = (second.flags & virtio::descflags::kNext) != 0;
      }
      while (more) {  // speculation miss: walk the remainder one-by-one
        auto d = vq_.fetch_descriptor(next, t);
        t = d.done;
        chain.descriptors.push_back(d.value);
        next = d.value.next;
        more = (d.value.flags & virtio::descflags::kNext) != 0;
      }
    }
  }
  bool fetch_error = false;
  if (walk_chain) {
    const auto walk = vq_.fetch_chain(head, t, chain.descriptors);
    t = walk.done;
    chain.via_indirect = walk.value.via_indirect;
    fetch_error = walk.value.error;
  }
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
    // The table read returned garbage: force a length the bounds check
    // below rejects, as a corrupted descriptor would.
    chain.descriptors.front().addr = 0;
  }
  chain.error = fetch_error || !chain_within_bounds(chain, vq_.size());
  return t;
}

IQueueEngine::Completion QueueEngine::complete_chain(
    const FetchedChain& chain, u32 written, sim::SimTime start,
    bool refresh_suppression) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.used_update_cycles);
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kUsedWriteFail)) {
    // The used-ring update is lost before reaching host memory: the
    // cursor does not advance and the driver never sees this completion
    // (the chain's buffers stay in flight until the driver resets).
    return Completion{t, false};
  }
  const u16 new_used_idx = static_cast<u16>(vq_.used_idx() + 1);
  const auto push = vq_.push_used(chain.handle, written, t);
  t = push.issuer_free;
  // The delivered edge of the posted used-idx write: when a host CPU
  // spinning on the used ring can first observe this completion.
  record_completion(push.delivered);

  bool interrupt = true;
  t += kQueueTiming.clock.cycles(kQueueTiming.irq_decision_cycles);
  if (policy_.use_event_idx) {
    u16 event_value;
    const bool fresh = refresh_suppression || !cached_used_event_.has_value();
    if (fresh) {
      const auto event = vq_.read_used_event(t);
      t = event.done;
      cached_used_event_ = event.value;
      event_value = event.value;
    } else {
      event_value = *cached_used_event_;
    }
    // §2.7.10: interrupt iff used_event was passed by this update. A
    // fresh decision extends the crossing window back over completions
    // pushed against the stale snapshot (a mergeable RX span can cross
    // used_event at any of its entries, not just the final one).
    u16 old_used = static_cast<u16>(new_used_idx - 1);
    if (fresh) {
      old_used = static_cast<u16>(old_used - stale_completions_);
      stale_completions_ = 0;
    } else {
      ++stale_completions_;
    }
    interrupt = static_cast<u16>(new_used_idx - event_value - 1) <
                static_cast<u16>(new_used_idx - old_used);
  }
  return Completion{t, interrupt};
}

sim::SimTime QueueEngine::post_drain_update(u16 drained_through,
                                            sim::SimTime start) {
  if (!policy_.use_event_idx) {
    return start;
  }
  // EVENT_IDX: request a notification for the publish after the ones we
  // are about to drain (§2.7.10 — the device writes avail_event).
  return vq_.write_avail_event(drained_through, start).issuer_free;
}

void IQueueEngine::transfer(migrate::StateIo& io, u16 /*queue_size*/) {
  io.u64(completions_);
  for (sim::SimTime& t : visible_at_) {
    io.time(t);
  }
}

void QueueEngine::transfer(migrate::StateIo& io, u16 queue_size) {
  IQueueEngine::transfer(io, queue_size);
  vq_.transfer(io, queue_size);
  io.optional(cached_used_event_);
  io.u16(stale_completions_);
}

}  // namespace vfpga::core
