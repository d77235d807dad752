#include "vfpga/core/queue_engine.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::core {
namespace {

virtio::Descriptor decode_descriptor(ConstByteSpan raw) {
  VFPGA_EXPECTS(raw.size() >= virtio::kDescSize);
  virtio::Descriptor d;
  d.addr = load_le64(raw, virtio::kDescAddrOffset);
  d.len = load_le32(raw, virtio::kDescLenOffset);
  d.flags = load_le16(raw, virtio::kDescFlagsOffset);
  d.next = load_le16(raw, virtio::kDescNextOffset);
  return d;
}

}  // namespace

bool chain_within_bounds(const FetchedChain& chain, u16 queue_size) {
  if (chain.descriptors.empty() || chain.descriptors.size() > queue_size) {
    return false;
  }
  u64 readable_bytes = 0;
  for (const virtio::Descriptor& d : chain.descriptors) {
    if (d.addr == 0) {
      return false;
    }
    if ((d.flags & virtio::descflags::kWrite) == 0) {
      if (d.len == 0) {
        return false;
      }
      readable_bytes += d.len;
    }
  }
  return readable_bytes <= kBramBytes;
}

sim::SimTime IQueueEngine::finish_fetch(FetchedChain& chain, bool walk_error,
                                        u16 queue_size, sim::SimTime t) {
  t += kQueueTiming.clock.cycles(kQueueTiming.per_descriptor_cycles *
                                 chain.descriptors.size());
  // A garbage read poisons the head entry, so the bounds check below
  // rejects the whole chain.
  if (fault_ != nullptr && chain.via_indirect &&
      fault_->should_inject(fault::FaultClass::kIndirectCorrupt) &&
      !chain.descriptors.empty()) {
    chain.descriptors.front().addr = 0;
  }
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kDescCorrupt) &&
      !chain.descriptors.empty()) {
    chain.descriptors.front().addr = 0;
  }
  chain.error = walk_error || !chain_within_bounds(chain, queue_size);
  return t;
}

void QueueEngine::configure(const virtio::RingAddresses& rings,
                            u16 queue_size, virtio::FeatureSet negotiated,
                            sim::SimTime /*at*/) {
  VFPGA_EXPECTS(queue_size != 0 && (queue_size & (queue_size - 1)) == 0);
  VFPGA_EXPECTS(rings.desc % virtio::kDescAlign == 0);
  VFPGA_EXPECTS(rings.used % virtio::kUsedAlign == 0);
  addrs_ = rings;
  queue_size_ = queue_size;
  negotiated_ = negotiated;
  avail_cursor_ = 0;
  used_idx_ = 0;
}

Poll QueueEngine::poll_available(sim::SimTime start) {
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + virtio::kAvailIdxOffset, raw);
  return Poll{static_cast<u16>(load_le16(raw) - avail_cursor_), done};
}

sim::SimTime QueueEngine::consume_chain(sim::SimTime start,
                                        FetchedChain& chain) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.arbitration_cycles);
  const u16 slot = static_cast<u16>(avail_cursor_ % queue_size_);
  std::array<u8, 2> raw{};
  t = port_.read(t, addrs_.avail + virtio::avail_entry_offset(slot), raw);
  ++avail_cursor_;

  chain.handle = load_le16(raw);
  chain.ring_slots = 1;  // split completion needs only the head index
  chain.via_indirect = false;
  chain.descriptors.clear();
  const bool walked = walk_chain(chain.handle, t, chain);
  return finish_fetch(chain, !walked, queue_size_, t);
}

bool QueueEngine::walk_chain(u16 head, sim::SimTime& t, FetchedChain& chain) {
  // Descriptors already read: free-list drivers lay chains out as
  // contiguous runs, so once a chain continues the FSM fetches the next
  // entries a cacheline at a time instead of one dependent read each.
  std::array<virtio::Descriptor, kDescFetchWindow> window{};
  std::array<u8, virtio::kDescSize * kDescFetchWindow> raw{};
  u16 window_first = 0;
  u16 window_len = 0;
  u16 index = head;
  // A conformant driver never builds a chain longer than the queue; a
  // longer walk means the table is corrupt (or loops).
  for (u16 guard = 0; guard < queue_size_; ++guard) {
    if (index >= queue_size_) {
      return false;  // a head or NEXT naming no descriptor
    }
    if (index < window_first || index - window_first >= window_len) {
      const u16 want =
          guard == 0 ? (policy_.batched_chain_fetch ? 2 : 1)
                     : kDescFetchWindow;
      window_first = index;
      window_len = std::min<u16>(want, static_cast<u16>(queue_size_ - index));
      const ByteSpan bytes =
          ByteSpan{raw}.first(virtio::kDescSize * window_len);
      t = port_.read(t, addrs_.desc + virtio::desc_offset(index), bytes);
      for (u16 i = 0; i < window_len; ++i) {
        window[i] = decode_descriptor(bytes.subspan(virtio::kDescSize * i));
      }
    }
    const virtio::Descriptor& d = window[index - window_first];
    if ((d.flags & virtio::descflags::kIndirect) != 0) {
      // §2.7.5.3: the descriptor points at a table of descriptors; the
      // whole table arrives in one DMA read. An indirect descriptor is
      // never chained, its length must be a whole number of descriptor
      // entries, and the table must not exceed the queue size; the
      // table entries use table-relative `next` indices, which for our
      // drivers are laid out sequentially.
      chain.via_indirect = true;
      const u32 len = d.len;
      if (!chain.descriptors.empty() || len == 0 ||
          len % virtio::kDescSize != 0 ||
          len / virtio::kDescSize > queue_size_) {
        return false;
      }
      table_.resize(len);
      t = port_.read(t, d.addr, table_);
      for (std::size_t at = 0; at < len; at += virtio::kDescSize) {
        chain.descriptors.push_back(
            decode_descriptor(ConstByteSpan{table_}.subspan(at)));
      }
      return true;
    }
    chain.descriptors.push_back(d);
    if ((d.flags & virtio::descflags::kNext) == 0) {
      return true;
    }
    index = d.next;
  }
  return false;
}

IQueueEngine::Completion QueueEngine::complete_chain(
    const FetchedChain& chain, u32 written, sim::SimTime start,
    bool refresh_suppression) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.used_update_cycles);
  if (used_write_lost()) {
    return Completion{t, false};
  }
  VFPGA_EXPECTS(chain.handle < queue_size_);
  const u16 slot = static_cast<u16>(used_idx_ % queue_size_);
  std::array<u8, virtio::kUsedElemSize> elem{};
  store_le32(elem, 0, chain.handle);
  store_le32(ByteSpan{elem}, 4, written);
  const auto elem_timing =
      port_.write(t, addrs_.used + virtio::used_entry_offset(slot), elem);

  ++used_idx_;
  std::array<u8, 2> idx{};
  store_le16(idx, 0, used_idx_);
  // The idx write must not pass the element write: issue it after the
  // element has left the engine (PCIe posted-write ordering then
  // guarantees visibility order at the host).
  const auto idx_timing = port_.write(elem_timing.issuer_free,
                                      addrs_.used + virtio::kUsedIdxOffset,
                                      idx);
  t = idx_timing.issuer_free;
  // The delivered edge of the posted used-idx write: when a host CPU
  // spinning on the used ring can first observe this completion.
  record_completion(std::max(elem_timing.delivered, idx_timing.delivered));

  t += kQueueTiming.clock.cycles(kQueueTiming.irq_decision_cycles);
  if (!event_idx()) {
    return Completion{t, true};
  }
  if (refresh_suppression || !cached_used_event_.has_value()) {
    std::array<u8, 2> raw{};
    t = port_.read(t, addrs_.avail + virtio::used_event_offset(queue_size_),
                   raw);
    cached_used_event_ = load_le16(raw);
  }
  // §2.7.10: interrupt iff this update passed used_event, i.e. the
  // entry just published sits at used_event (vring_need_event with one
  // new entry).
  const bool interrupt =
      *cached_used_event_ == static_cast<u16>(used_idx_ - 1);
  return Completion{t, interrupt};
}

sim::SimTime QueueEngine::post_drain_update(u16 drained_through,
                                            sim::SimTime start) {
  if (!event_idx()) {
    return start;
  }
  // EVENT_IDX: request a notification for the publish after the ones we
  // are about to drain (§2.7.10 — the device writes avail_event).
  std::array<u8, 2> raw{};
  store_le16(raw, 0, drained_through);
  return port_
      .write(start, addrs_.used + virtio::avail_event_offset(queue_size_),
             raw)
      .issuer_free;
}

void IQueueEngine::transfer(migrate::StateIo& io, u16 /*queue_size*/) {
  io.u64(completions_);
  for (sim::SimTime& t : visible_at_) {
    io.time(t);
  }
}

void QueueEngine::transfer(migrate::StateIo& io, u16 queue_size) {
  IQueueEngine::transfer(io, queue_size);
  io.u64(addrs_.desc);
  io.u64(addrs_.avail);
  io.u64(addrs_.used);
  if (io.loading()) {
    queue_size_ = queue_size;
  }
  io.expect<u16>(queue_size_);
  io.features(negotiated_);
  io.u16(avail_cursor_);
  io.u16(used_idx_);
  io.optional(cached_used_event_);
}

}  // namespace vfpga::core
