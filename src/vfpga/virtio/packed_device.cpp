#include "vfpga/virtio/packed_device.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {

namespace pk = packed;

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

}  // namespace

void PackedVirtqueueDevice::configure(const RingAddresses& addrs,
                                      u16 queue_size, FeatureSet negotiated) {
  VFPGA_EXPECTS(queue_size != 0);
  VFPGA_EXPECTS(negotiated.has(feature::kRingPacked));
  addrs_ = addrs;
  queue_size_ = queue_size;
  avail_cursor_ = 0;
  avail_wrap_ = true;
  used_cursor_ = 0;
  used_wrap_ = true;
  cached_head_.reset();
}

virtio::Timed<bool> PackedVirtqueueDevice::peek_available(sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  std::array<u8, pk::kDescSize> raw{};
  const sim::SimTime done = port_.read(
      start, addrs_.desc + pk::desc_offset(avail_cursor_), raw);
  const pk::PackedDescriptor desc = decode(raw);
  const bool available = pk::is_available(desc.desc_flags, avail_wrap_);
  if (available) {
    cached_head_ = desc;
  } else {
    cached_head_.reset();
  }
  return virtio::Timed<bool>{available, done};
}

virtio::Timed<PackedVirtqueueDevice::Chain>
PackedVirtqueueDevice::consume_chain(sim::SimTime start,
                                     std::vector<Descriptor>& descriptors) {
  VFPGA_EXPECTS(cached_head_.has_value());
  descriptors.clear();
  Chain chain;
  sim::SimTime t = start;
  pk::PackedDescriptor current = *cached_head_;
  cached_head_.reset();

  // Speculative window for chain continuations: packed chains occupy
  // consecutive ring slots by construction, so the FSM fetches follow-on
  // descriptors a cacheline at a time instead of one dependent read per
  // slot. The head was already read by peek_available, so
  // one-descriptor chains see an unchanged transaction stream. The
  // window is staged in staging_.
  std::size_t window_len = 0;
  std::size_t window_pos = 0;

  for (u16 guard = 0; guard < queue_size_; ++guard) {
    if ((current.desc_flags & pk::flags::kIndirect) != 0) {
      // §2.8.8: the descriptor points at a table of packed descriptors;
      // the whole table arrives in one DMA read. An INDIRECT descriptor
      // must be the chain's only ring slot (never combined with NEXT),
      // its length a whole number of entries within the queue size.
      chain.via_indirect = true;
      chain.id = current.id;
      ++chain.descriptor_count;
      ++avail_cursor_;
      if (avail_cursor_ == queue_size_) {
        avail_cursor_ = 0;
        avail_wrap_ = !avail_wrap_;
      }
      const u32 len = current.len;
      if (!descriptors.empty() ||
          (current.desc_flags & pk::flags::kNext) != 0 || len == 0 ||
          len % pk::kDescSize != 0 || len / pk::kDescSize > queue_size_) {
        chain.error = true;
        return virtio::Timed<Chain>{chain, t};
      }
      staging_.resize(len);
      t = port_.read(t, current.addr, staging_);
      for (std::size_t at = 0; at < len; at += pk::kDescSize) {
        const pk::PackedDescriptor entry =
            decode(ConstByteSpan{staging_}.subspan(at));
        Descriptor view;
        view.addr = entry.addr;
        view.len = entry.len;
        view.flags = (entry.desc_flags & pk::flags::kWrite) != 0
                         ? descflags::kWrite
                         : u16{0};
        descriptors.push_back(view);
      }
      return virtio::Timed<Chain>{chain, t};
    }
    Descriptor view;
    view.addr = current.addr;
    view.len = current.len;
    view.flags = (current.desc_flags & pk::flags::kWrite) != 0
                     ? descflags::kWrite
                     : u16{0};
    descriptors.push_back(view);
    chain.id = current.id;  // the last descriptor's id is authoritative
    ++chain.descriptor_count;
    ++avail_cursor_;
    if (avail_cursor_ == queue_size_) {
      avail_cursor_ = 0;
      avail_wrap_ = !avail_wrap_;
    }
    if ((current.desc_flags & pk::flags::kNext) == 0) {
      return virtio::Timed<Chain>{chain, t};
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
  chain.error = true;  // chain longer than the queue: corrupted ring
  return virtio::Timed<Chain>{chain, t};
}

pcie::DmaPort::WriteTiming PackedVirtqueueDevice::push_used(
    const Chain& chain, u32 written, sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(chain.descriptor_count > 0);
  std::array<u8, pk::kDescSize> raw{};
  store_le64(raw, pk::kDescAddrOffset, 0);
  store_le32(ByteSpan{raw}, pk::kDescLenOffset, written);
  store_le16(ByteSpan{raw}, pk::kDescIdOffset, chain.id);
  store_le16(ByteSpan{raw}, pk::kDescFlagsOffset,
             pk::used_flags(used_wrap_));
  const auto timing = port_.write(
      start, addrs_.desc + pk::desc_offset(used_cursor_), raw);

  // §2.8.7: one used descriptor per chain; skip ahead by its length.
  for (u16 i = 0; i < chain.descriptor_count; ++i) {
    ++used_cursor_;
    if (used_cursor_ == queue_size_) {
      used_cursor_ = 0;
      used_wrap_ = !used_wrap_;
    }
  }
  return timing;
}

virtio::Timed<u16> PackedVirtqueueDevice::read_driver_event_flags(
    sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + pk::event::kFlagsOffset, raw);
  return virtio::Timed<u16>{load_le16(raw), done};
}

pcie::DmaPort::WriteTiming PackedVirtqueueDevice::write_device_event_flags(
    u16 value, sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  store_le16(raw, 0, value);
  return port_.write(start, addrs_.used + pk::event::kFlagsOffset, raw);
}

void PackedVirtqueueDevice::transfer(migrate::StateIo& io, u16 queue_size) {
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
}

}  // namespace vfpga::virtio
