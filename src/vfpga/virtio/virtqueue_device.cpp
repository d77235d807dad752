#include "vfpga/virtio/virtqueue_device.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {
namespace {

Descriptor decode_descriptor(ConstByteSpan raw) {
  VFPGA_EXPECTS(raw.size() >= kDescSize);
  Descriptor d;
  d.addr = load_le64(raw, kDescAddrOffset);
  d.len = load_le32(raw, kDescLenOffset);
  d.flags = load_le16(raw, kDescFlagsOffset);
  d.next = load_le16(raw, kDescNextOffset);
  return d;
}

}  // namespace

void VirtqueueDevice::configure(const RingAddresses& addrs, u16 queue_size,
                                FeatureSet negotiated) {
  VFPGA_EXPECTS(queue_size != 0 && (queue_size & (queue_size - 1)) == 0);
  VFPGA_EXPECTS(addrs.desc % kDescAlign == 0);
  VFPGA_EXPECTS(addrs.used % kUsedAlign == 0);
  addrs_ = addrs;
  queue_size_ = queue_size;
  negotiated_ = negotiated;
  avail_cursor_ = 0;
  used_idx_ = 0;
}

Timed<u16> VirtqueueDevice::fetch_avail_idx(sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + kAvailIdxOffset, raw);
  return Timed<u16>{load_le16(raw), done};
}

Timed<u16> VirtqueueDevice::fetch_avail_entry(u16 avail_position,
                                              sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  const u16 slot = static_cast<u16>(avail_position % queue_size_);
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + avail_entry_offset(slot), raw);
  const u16 head = load_le16(raw);
  VFPGA_ENSURES(head < queue_size_);
  return Timed<u16>{head, done};
}

Timed<Descriptor> VirtqueueDevice::fetch_descriptor(u16 index,
                                                    sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(index < queue_size_);
  std::array<u8, kDescSize> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.desc + desc_offset(index), raw);
  return Timed<Descriptor>{decode_descriptor(raw), done};
}

sim::SimTime VirtqueueDevice::fetch_descriptors(u16 first,
                                                std::span<Descriptor> out,
                                                sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(!out.empty() && out.size() <= kDescFetchWindow);
  VFPGA_EXPECTS(first + out.size() <= queue_size_);
  std::array<u8, kDescSize * kDescFetchWindow> storage{};
  const ByteSpan raw = ByteSpan{storage}.first(kDescSize * out.size());
  const sim::SimTime done =
      port_.read(start, addrs_.desc + desc_offset(first), raw);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = decode_descriptor(raw.subspan(i * kDescSize));
  }
  return done;
}

Timed<ChainFetch> VirtqueueDevice::fetch_chain(u16 head, sim::SimTime start,
                                               std::vector<Descriptor>& out) {
  out.clear();
  ChainFetch walk;
  sim::SimTime t = start;
  u16 index = head;
  // Speculative window for chain continuations: free-list drivers lay
  // chains out as contiguous runs, so once a chain continues the FSM
  // fetches the next descriptors a cacheline at a time instead of one
  // dependent read per entry. The head is always a single-descriptor
  // read, so one-descriptor chains see an unchanged transaction stream.
  std::array<Descriptor, kDescFetchWindow> window{};
  u16 window_first = 0;
  u16 window_len = 0;
  // A conformant driver never builds a chain longer than the queue; a
  // longer walk means the table is corrupt (or loops) and the FSM bails
  // with the error flag rather than spinning forever.
  for (u16 guard = 0; guard < queue_size_; ++guard) {
    Timed<Descriptor> fetched{Descriptor{}, t};
    const bool in_window = index >= window_first &&
                           index - window_first < window_len;
    if (in_window) {
      fetched.value = window[index - window_first];
    } else if (guard == 0) {
      fetched = fetch_descriptor(index, t);
      t = fetched.done;
    } else {
      window_len = std::min<u16>(kDescFetchWindow,
                                 static_cast<u16>(queue_size_ - index));
      window_first = index;
      t = fetch_descriptors(index, std::span{window}.first(window_len), t);
      fetched.value = window.front();
    }
    if ((fetched.value.flags & descflags::kIndirect) != 0) {
      // §2.7.5.3: the descriptor points at a table of descriptors; the
      // whole table arrives in one DMA read. An indirect descriptor is
      // never chained, its length must be a whole number of descriptor
      // entries, and the table must not exceed the queue size; the
      // table entries use table-relative `next` indices, which for our
      // drivers are laid out sequentially.
      walk.via_indirect = true;
      const u32 len = fetched.value.len;
      if (!out.empty() || len == 0 || len % kDescSize != 0 ||
          len / kDescSize > queue_size_) {
        walk.error = true;
        return Timed<ChainFetch>{walk, t};
      }
      table_.resize(len);
      t = port_.read(t, fetched.value.addr, table_);
      for (std::size_t at = 0; at < len; at += kDescSize) {
        out.push_back(decode_descriptor(ConstByteSpan{table_}.subspan(at)));
      }
      return Timed<ChainFetch>{walk, t};
    }
    out.push_back(fetched.value);
    if ((fetched.value.flags & descflags::kNext) == 0) {
      return Timed<ChainFetch>{walk, t};
    }
    index = fetched.value.next;
  }
  walk.error = true;  // chain longer than the queue: corrupted table
  return Timed<ChainFetch>{walk, t};
}

sim::SimTime VirtqueueDevice::gather_payload(std::span<const Descriptor> chain,
                                             Bytes& out,
                                             sim::SimTime start) const {
  sim::SimTime t = start;
  for (const Descriptor& d : chain) {
    if ((d.flags & descflags::kWrite) != 0) {
      continue;  // device-writable: not ours to read
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + d.len);
    t = port_.read(t, d.addr, ByteSpan{out}.subspan(old_size));
  }
  return t;
}

pcie::DmaPort::WriteTiming VirtqueueDevice::scatter_payload(
    std::span<const Descriptor> chain, ConstByteSpan data, sim::SimTime start,
    u32& written_out) const {
  sim::SimTime issuer = start;
  sim::SimTime delivered = start;
  std::size_t offset = 0;
  for (const Descriptor& d : chain) {
    if ((d.flags & descflags::kWrite) == 0) {
      continue;  // device-readable: skip
    }
    if (offset >= data.size()) {
      break;
    }
    const std::size_t chunk =
        std::min<std::size_t>(d.len, data.size() - offset);
    const auto timing =
        port_.write(issuer, d.addr, data.subspan(offset, chunk));
    issuer = timing.issuer_free;
    delivered = std::max(delivered, timing.delivered);
    offset += chunk;
  }
  VFPGA_ENSURES(offset == data.size());  // chain must be large enough
  written_out = static_cast<u32>(offset);
  return pcie::DmaPort::WriteTiming{issuer, delivered};
}

pcie::DmaPort::WriteTiming VirtqueueDevice::push_used(u16 head, u32 written,
                                                      sim::SimTime start) {
  VFPGA_EXPECTS(configured());
  VFPGA_EXPECTS(head < queue_size_);
  const u16 slot = static_cast<u16>(used_idx_ % queue_size_);

  std::array<u8, kUsedElemSize> elem{};
  store_le32(elem, 0, head);
  store_le32(ByteSpan{elem}, 4, written);
  const auto elem_timing =
      port_.write(start, addrs_.used + used_entry_offset(slot), elem);

  ++used_idx_;
  std::array<u8, 2> idx{};
  store_le16(idx, 0, used_idx_);
  // The idx write must not pass the element write: issue it after the
  // element has left the engine (PCIe posted-write ordering then
  // guarantees visibility order at the host).
  const auto idx_timing = port_.write(elem_timing.issuer_free,
                                      addrs_.used + kUsedIdxOffset, idx);
  return pcie::DmaPort::WriteTiming{
      idx_timing.issuer_free,
      std::max(elem_timing.delivered, idx_timing.delivered)};
}

Timed<u16> VirtqueueDevice::read_used_event(sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  const sim::SimTime done =
      port_.read(start, addrs_.avail + used_event_offset(queue_size_), raw);
  return Timed<u16>{load_le16(raw), done};
}

pcie::DmaPort::WriteTiming VirtqueueDevice::write_avail_event(
    u16 value, sim::SimTime start) const {
  VFPGA_EXPECTS(configured());
  std::array<u8, 2> raw{};
  store_le16(raw, 0, value);
  return port_.write(start, addrs_.used + avail_event_offset(queue_size_),
                     raw);
}

void VirtqueueDevice::transfer(migrate::StateIo& io, u16 queue_size) {
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
}

}  // namespace vfpga::virtio
