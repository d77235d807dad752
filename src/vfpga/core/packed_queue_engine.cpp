#include "vfpga/core/packed_queue_engine.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::core {

namespace pk = virtio::packed;

namespace {

pk::PackedDescriptor decode(ConstByteSpan raw) {
  VFPGA_EXPECTS(raw.size() >= pk::kDescSize);
  pk::PackedDescriptor d;
  d.addr = load_le64(raw, pk::kDescAddrOffset);
  d.len = load_le32(raw, pk::kDescLenOffset);
  d.id = load_le16(raw, pk::kDescIdOffset);
  d.desc_flags = load_le16(raw, pk::kDescFlagsOffset);
  return d;
}

/// The format-independent view of a packed descriptor.
virtio::Descriptor view_of(const pk::PackedDescriptor& d) {
  virtio::Descriptor view;
  view.addr = d.addr;
  view.len = d.len;
  view.flags = (d.desc_flags & pk::flags::kWrite) != 0
                   ? virtio::descflags::kWrite
                   : u16{0};
  return view;
}

}  // namespace

void PackedQueueEngine::configure(const virtio::RingAddresses& rings,
                                  u16 queue_size,
                                  virtio::FeatureSet negotiated,
                                  sim::SimTime at) {
  VFPGA_EXPECTS(queue_size != 0);
  VFPGA_EXPECTS(negotiated.has(virtio::feature::kRingPacked));
  addrs_ = rings;
  queue_size_ = queue_size;
  avail_cursor_ = 0;
  avail_wrap_ = true;
  used_cursor_ = 0;
  used_wrap_ = true;
  cached_head_.reset();
  std::array<u8, 2> raw{};
  store_le16(raw, 0, pk::event::kEnable);
  port_.write(at, addrs_.used + pk::event::kFlagsOffset, raw);
}

Poll PackedQueueEngine::poll_available(sim::SimTime start) {
  std::array<u8, pk::kDescSize> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.desc + pk::desc_offset(avail_cursor_), raw);
  const pk::PackedDescriptor desc = decode(raw);
  if (pk::is_available(desc.desc_flags, avail_wrap_)) {
    cached_head_ = desc;
  } else {
    cached_head_.reset();
  }
  return Poll{static_cast<u16>(cached_head_ ? 1 : 0), done};
}

void PackedQueueEngine::advance_avail() {
  ++avail_cursor_;
  if (avail_cursor_ == queue_size_) {
    avail_cursor_ = 0;
    avail_wrap_ = !avail_wrap_;
  }
}

sim::SimTime PackedQueueEngine::consume_chain(sim::SimTime start,
                                              FetchedChain& chain) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.arbitration_cycles);
  if (!cached_head_) {
    // Defensive re-peek (e.g. a trusted-credit consume without a fresh
    // poll): the FSM must read the descriptor anyway.
    const Poll poll = poll_available(t);
    t = poll.done;
    VFPGA_ASSERT(poll.available == 1);
  }
  pk::PackedDescriptor current = *cached_head_;
  cached_head_.reset();

  chain.handle = 0;
  chain.ring_slots = 0;
  chain.via_indirect = false;
  chain.descriptors.clear();
  // Speculative window for chain continuations: packed chains occupy
  // consecutive ring slots by construction, so the FSM fetches follow-on
  // descriptors a cacheline at a time instead of one dependent read per
  // slot. The head was already read by the poll, so one-descriptor
  // chains see an unchanged transaction stream.
  std::size_t window_len = 0;
  std::size_t window_pos = 0;
  bool walk_error = true;  // unless the walk ends within the queue
  for (u16 guard = 0; guard < queue_size_; ++guard) {
    ++chain.ring_slots;
    advance_avail();
    if ((current.desc_flags & pk::flags::kIndirect) != 0) {
      // §2.8.8: the descriptor points at a table of packed descriptors;
      // the whole table arrives in one DMA read. An INDIRECT descriptor
      // must be the chain's only ring slot (never combined with NEXT),
      // its length a whole number of entries within the queue size.
      chain.via_indirect = true;
      chain.handle = current.id;
      const u32 len = current.len;
      if (!chain.descriptors.empty() ||
          (current.desc_flags & pk::flags::kNext) != 0 || len == 0 ||
          len % pk::kDescSize != 0 || len / pk::kDescSize > queue_size_) {
        break;
      }
      staging_.resize(len);
      t = port_.read(t, current.addr, staging_);
      for (std::size_t at = 0; at < len; at += pk::kDescSize) {
        chain.descriptors.push_back(
            view_of(decode(ConstByteSpan{staging_}.subspan(at))));
      }
      walk_error = false;
      break;
    }
    chain.descriptors.push_back(view_of(current));
    chain.handle = current.id;  // the last descriptor's id is authoritative
    if ((current.desc_flags & pk::flags::kNext) == 0) {
      walk_error = false;
      break;
    }
    // Chains occupy consecutive slots: fetch the continuation, pulling
    // a fresh window when the previous one is exhausted (windows never
    // span the ring-wrap boundary).
    if (window_pos >= window_len) {
      const u16 count = std::min<u16>(
          kDescFetchWindow, static_cast<u16>(queue_size_ - avail_cursor_));
      window_len = static_cast<std::size_t>(count) * pk::kDescSize;
      staging_.resize(window_len);
      t = port_.read(t, addrs_.desc + pk::desc_offset(avail_cursor_),
                     staging_);
      window_pos = 0;
    }
    current = decode(ConstByteSpan{staging_}.subspan(window_pos));
    window_pos += pk::kDescSize;
  }
  return finish_fetch(chain, walk_error, queue_size_, t);
}

IQueueEngine::Completion PackedQueueEngine::complete_chain(
    const FetchedChain& chain, u32 written, sim::SimTime start,
    bool refresh_suppression) {
  sim::SimTime t =
      start + kQueueTiming.clock.cycles(kQueueTiming.used_update_cycles);
  if (used_write_lost()) {
    return Completion{t, false};
  }
  VFPGA_EXPECTS(chain.ring_slots > 0);
  std::array<u8, pk::kDescSize> raw{};
  store_le64(raw, pk::kDescAddrOffset, 0);
  store_le32(ByteSpan{raw}, pk::kDescLenOffset, written);
  store_le16(ByteSpan{raw}, pk::kDescIdOffset, chain.handle);
  store_le16(ByteSpan{raw}, pk::kDescFlagsOffset,
             pk::used_flags(used_wrap_));
  const auto push =
      port_.write(t, addrs_.desc + pk::desc_offset(used_cursor_), raw);
  for (u16 i = 0; i < chain.ring_slots; ++i) {
    ++used_cursor_;
    if (used_cursor_ == queue_size_) {
      used_cursor_ = 0;
      used_wrap_ = !used_wrap_;
    }
  }
  t = push.issuer_free;
  // Delivered edge of the completion descriptor write (poll-mode gate).
  record_completion(push.delivered);

  t += kQueueTiming.clock.cycles(kQueueTiming.irq_decision_cycles);
  if (refresh_suppression || !cached_driver_event_.has_value()) {
    std::array<u8, 2> flags{};
    t = port_.read(t, addrs_.avail + pk::event::kFlagsOffset, flags);
    cached_driver_event_ = load_le16(flags);
  }
  return Completion{t, *cached_driver_event_ != pk::event::kDisable};
}

sim::SimTime PackedQueueEngine::post_drain_update(u16 /*drained_through*/,
                                                  sim::SimTime start) {
  return start;
}

void PackedQueueEngine::transfer(migrate::StateIo& io, u16 queue_size) {
  IQueueEngine::transfer(io, queue_size);
  io.u64(addrs_.desc);
  io.u64(addrs_.avail);
  io.u64(addrs_.used);
  if (io.loading()) {
    queue_size_ = queue_size;
  }
  io.expect<u16>(queue_size_);
  io.index(avail_cursor_, queue_size_);
  io.boolean(avail_wrap_);
  io.index(used_cursor_, queue_size_);
  io.boolean(used_wrap_);
  bool has_head = cached_head_.has_value();
  io.boolean(has_head);
  if (io.loading()) {
    cached_head_ = has_head ? std::optional{pk::PackedDescriptor{}}
                            : std::nullopt;
  }
  if (has_head) {
    io.u64(cached_head_->addr);
    io.u32(cached_head_->len);
    io.u16(cached_head_->id);
    io.u16(cached_head_->desc_flags);
  }
  io.optional(cached_driver_event_);
}

}  // namespace vfpga::core
