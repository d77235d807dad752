#include "vfpga/virtio/virtqueue_driver.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {
namespace {

bool is_pow2(u16 v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

VirtqueueDriver::VirtqueueDriver(mem::HostMemory& memory, u16 queue_size,
                                 FeatureSet negotiated)
    : memory_(&memory),
      queue_size_(queue_size),
      negotiated_(negotiated),
      tokens_(queue_size, 0),
      chain_len_(queue_size, 0),
      indirect_table_(queue_size, 0),
      indirect_capacity_(queue_size, 0) {
  VFPGA_EXPECTS(is_pow2(queue_size));

  RingAddresses addrs;
  addrs.desc = memory.allocate(desc_table_bytes(queue_size), kDescAlign);
  addrs.avail = memory.allocate(avail_ring_bytes(queue_size), kAvailAlign);
  addrs.used = memory.allocate(used_ring_bytes(queue_size), kUsedAlign);
  memory.fill(addrs.desc, 0, desc_table_bytes(queue_size));
  memory.fill(addrs.avail, 0, avail_ring_bytes(queue_size));
  memory.fill(addrs.used, 0, used_ring_bytes(queue_size));
  // The fills made every ring page resident.
  auto views = resolve(memory, addrs, queue_size);
  VFPGA_ENSURES(views.has_value());
  rings_ = std::move(*views);

  // Free list threads every descriptor through its `next` field.
  for (u16 i = 0; i < queue_size; ++i) {
    Descriptor d;
    d.next = static_cast<u16>((i + 1) % queue_size);
    write_descriptor(i, d);
  }
  free_head_ = 0;
  num_free_ = queue_size;
}

void VirtqueueDriver::write_descriptor(u16 index, const Descriptor& desc) {
  VFPGA_EXPECTS(index < queue_size_);
  const u64 base = desc_offset(index);
  rings_.desc.write_le64(base + kDescAddrOffset, desc.addr);
  rings_.desc.write_le32(base + kDescLenOffset, desc.len);
  rings_.desc.write_le16(base + kDescFlagsOffset, desc.flags);
  rings_.desc.write_le16(base + kDescNextOffset, desc.next);
}

std::optional<VirtqueueDriver::Views> VirtqueueDriver::resolve(
    mem::HostMemory& memory, const RingAddresses& addrs, u16 queue_size) {
  auto desc = memory.view(addrs.desc, desc_table_bytes(queue_size));
  auto avail = memory.view(addrs.avail, avail_ring_bytes(queue_size));
  auto used = memory.view(addrs.used, used_ring_bytes(queue_size));
  if (!desc || !avail || !used) {
    return std::nullopt;
  }
  return Views{std::move(*desc), std::move(*avail), std::move(*used)};
}

u16 VirtqueueDriver::next_of(u16 index) const {
  VFPGA_EXPECTS(index < queue_size_);
  return rings_.desc.read_le16(desc_offset(index) + kDescNextOffset);
}

std::optional<u16> VirtqueueDriver::add_chain(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  if (buffers.size() > num_free_) {
    return std::nullopt;
  }
  // VirtIO requires device-readable buffers before device-writable ones.
  bool seen_writable = false;
  for (const ChainBuffer& b : buffers) {
    if (b.device_writable) {
      seen_writable = true;
    } else {
      VFPGA_EXPECTS(!seen_writable);
    }
  }

  const u16 head = free_head_;
  u16 index = head;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    const u16 next_free = next_of(index);
    Descriptor d;
    d.addr = b.addr;
    d.len = b.len;
    d.flags = b.device_writable ? descflags::kWrite : u16{0};
    if (i + 1 < buffers.size()) {
      d.flags |= descflags::kNext;
      d.next = next_free;
    } else {
      d.next = 0;
    }
    write_descriptor(index, d);
    index = next_free;
  }
  free_head_ = index;
  num_free_ = static_cast<u16>(num_free_ - buffers.size());

  tokens_[head] = token;
  chain_len_[head] = static_cast<u16>(buffers.size());

  // Place the head into the next avail-ring slot (not yet visible: the
  // idx write in publish() is the release point).
  const u16 slot = static_cast<u16>(
      (avail_idx_shadow_ + pending_publish_) % queue_size_);
  rings_.avail.write_le16(avail_entry_offset(slot), head);
  ++pending_publish_;
  return head;
}

std::optional<u16> VirtqueueDriver::add_chain_indirect(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  VFPGA_EXPECTS(buffers.size() <= queue_size_);  // §2.7.5.3.1 table cap
  VFPGA_EXPECTS(negotiated_.has(feature::kRingIndirectDesc));
  if (num_free_ == 0) {
    return std::nullopt;
  }
  // Recycle the head's table across uses (a driver's slab of indirect
  // tables); grow it only when this chain needs more entries than any
  // previous occupant of the slot — steady-state adds are allocation-free.
  const u16 head = free_head_;
  if (indirect_capacity_[head] < buffers.size()) {
    indirect_table_[head] =
        memory_->allocate(kDescSize * buffers.size(), kDescAlign);
    indirect_capacity_[head] = static_cast<u32>(buffers.size());
  }
  const HostAddr table = indirect_table_[head];
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    const HostAddr entry = table + kDescSize * i;
    memory_->write_le64(entry + kDescAddrOffset, b.addr);
    memory_->write_le32(entry + kDescLenOffset, b.len);
    u16 flags = b.device_writable ? descflags::kWrite : u16{0};
    u16 next = 0;
    if (i + 1 < buffers.size()) {
      flags |= descflags::kNext;
      next = static_cast<u16>(i + 1);  // table-relative indices
    }
    memory_->write_le16(entry + kDescFlagsOffset, flags);
    memory_->write_le16(entry + kDescNextOffset, next);
  }

  // One ring descriptor points at the table.
  const u16 next_free = next_of(head);
  Descriptor d;
  d.addr = table;
  d.len = static_cast<u32>(kDescSize * buffers.size());
  d.flags = descflags::kIndirect;
  d.next = 0;
  write_descriptor(head, d);
  free_head_ = next_free;
  --num_free_;

  tokens_[head] = token;
  chain_len_[head] = 1;  // only the indirect descriptor occupies the ring

  const u16 slot = static_cast<u16>(
      (avail_idx_shadow_ + pending_publish_) % queue_size_);
  rings_.avail.write_le16(avail_entry_offset(slot), head);
  ++pending_publish_;
  return head;
}

u16 VirtqueueDriver::publish() {
  if (pending_publish_ == 0) {
    return 0;
  }
  const u16 published = pending_publish_;
  kick_threshold_idx_ = avail_idx_shadow_;
  avail_idx_shadow_ = static_cast<u16>(avail_idx_shadow_ + pending_publish_);
  pending_publish_ = 0;
  rings_.avail.write_le16(kAvailIdxOffset, avail_idx_shadow_);
  return published;
}

bool VirtqueueDriver::should_kick() const {
  if (negotiated_.has(feature::kRingEventIdx)) {
    // Notify iff the device's avail_event has been passed by this
    // publish window (§2.7.10 wrap-safe comparison).
    const u16 event = rings_.used.read_le16(avail_event_offset(queue_size_));
    const u16 new_idx = avail_idx_shadow_;
    const u16 old_idx = kick_threshold_idx_;
    return static_cast<u16>(new_idx - event - 1) <
           static_cast<u16>(new_idx - old_idx);
  }
  const u16 flags = rings_.used.read_le16(kUsedFlagsOffset);
  return (flags & ringflags::kUsedNoNotify) == 0;
}

bool VirtqueueDriver::used_pending() const {
  return rings_.used.read_le16(kUsedIdxOffset) != last_used_idx_;
}

std::optional<VirtqueueDriver::Completion> VirtqueueDriver::harvest_used() {
  if (!used_pending()) {
    return std::nullopt;
  }
  const u16 slot = static_cast<u16>(last_used_idx_ % queue_size_);
  const u64 entry = used_entry_offset(slot);
  const u32 id = rings_.used.read_le32(entry);
  const u32 written = rings_.used.read_le32(entry + 4);
  if (id >= queue_size_) {
    // Corrupt used entry (Linux: "id %u out of range"): refuse to
    // harvest and mark the vring broken so the driver resets the device.
    mark_broken();
    return std::nullopt;
  }
  const u16 head = static_cast<u16>(id);
  const u16 count = chain_len_[head];
  if (count == 0) {
    mark_broken();  // completion for a chain we never exposed
    return std::nullopt;
  }
  ++last_used_idx_;

  // Recycle the chain onto the free list.
  u16 tail = head;
  for (u16 i = 1; i < count; ++i) {
    tail = next_of(tail);
  }
  rings_.desc.write_le16(desc_offset(tail) + kDescNextOffset, free_head_);
  free_head_ = head;
  num_free_ = static_cast<u16>(num_free_ + count);
  chain_len_[head] = 0;

  return Completion{tokens_[head], written, head};
}

void VirtqueueDriver::set_used_event(u16 value) {
  rings_.avail.write_le16(used_event_offset(queue_size_), value);
}

void VirtqueueDriver::transfer(migrate::StateIo& io) {
  io.expect<u16>(queue_size_);
  io.features(negotiated_);
  RingAddresses addrs = addresses();
  io.u64(addrs.desc);
  io.u64(addrs.avail);
  io.u64(addrs.used);
  if (io.loading() && !io.failed()) {
    auto views = resolve(*memory_, addrs, queue_size_);
    if (!views) {
      io.fail();
      return;
    }
    rings_ = std::move(*views);
  }
  for (u64& t : tokens_) {
    io.u64(t);
  }
  for (u16& len : chain_len_) {
    io.u16(len);
  }
  for (HostAddr& a : indirect_table_) {
    io.u64(a);
  }
  for (u32& c : indirect_capacity_) {
    io.u32(c);
  }
  io.index(free_head_, queue_size_);
  io.index(num_free_, queue_size_ + 1u);
  io.u16(avail_idx_shadow_);
  io.u16(pending_publish_);
  io.u16(last_used_idx_);
  io.u16(kick_threshold_idx_);
  bool is_broken = broken();
  io.boolean(is_broken);
  if (io.loading()) {
    restore_broken(is_broken);
  }
}

}  // namespace vfpga::virtio
