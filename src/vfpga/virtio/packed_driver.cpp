#include "vfpga/virtio/packed_driver.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::virtio {

namespace pk = packed;

PackedVirtqueueDriver::PackedVirtqueueDriver(mem::HostMemory& memory,
                                             u16 queue_size,
                                             FeatureSet negotiated)
    : memory_(&memory),
      queue_size_(queue_size),
      negotiated_(negotiated),
      id_desc_count_(queue_size, 0),
      id_token_(queue_size, 0),
      indirect_table_(queue_size, 0),
      indirect_capacity_(queue_size, 0),
      num_free_(queue_size) {
  VFPGA_EXPECTS(queue_size != 0);
  VFPGA_EXPECTS(negotiated.has(feature::kRingPacked));
  RingAddresses addrs;
  addrs.desc = memory.allocate(pk::ring_bytes(queue_size), 16);
  addrs.avail = memory.allocate(pk::event::kSize, 4);  // driver event
  addrs.used = memory.allocate(pk::event::kSize, 4);   // device event
  memory.fill(addrs.desc, 0, pk::ring_bytes(queue_size));
  memory.fill(addrs.avail, 0, pk::event::kSize);
  memory.fill(addrs.used, 0, pk::event::kSize);
  // The fills made every ring page resident.
  auto views = resolve(memory, addrs, queue_size);
  VFPGA_ENSURES(views.has_value());
  rings_ = std::move(*views);
  for (u16 i = 0; i < queue_size; ++i) {
    free_ids_.push_back(i);
  }
}

std::optional<PackedVirtqueueDriver::Views> PackedVirtqueueDriver::resolve(
    mem::HostMemory& memory, const RingAddresses& addrs, u16 queue_size) {
  auto ring = memory.view(addrs.desc, pk::ring_bytes(queue_size));
  auto driver_event = memory.view(addrs.avail, pk::event::kSize);
  auto device_event = memory.view(addrs.used, pk::event::kSize);
  if (!ring || !driver_event || !device_event) {
    return std::nullopt;
  }
  return Views{std::move(*ring), std::move(*driver_event),
               std::move(*device_event)};
}

std::optional<u16> PackedVirtqueueDriver::add_chain(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  if (buffers.size() > num_free_ || free_ids_.empty()) {
    return std::nullopt;
  }
  const u16 id = free_ids_.front();
  free_ids_.pop_front();
  id_desc_count_[id] = static_cast<u16>(buffers.size());
  id_token_[id] = token;

  u16 slot = next_avail_slot_;
  bool wrap = avail_wrap_;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    const u64 entry = pk::desc_offset(slot);
    rings_.ring.write_le64(entry + pk::kDescAddrOffset, b.addr);
    rings_.ring.write_le32(entry + pk::kDescLenOffset, b.len);
    // §2.8.6: the buffer ID is required only in the last descriptor of
    // the chain; writing it everywhere is permitted and simpler.
    rings_.ring.write_le16(entry + pk::kDescIdOffset, id);
    u16 desc_flags = pk::avail_flags(wrap);
    if (b.device_writable) {
      desc_flags |= pk::flags::kWrite;
    }
    if (i + 1 < buffers.size()) {
      desc_flags |= pk::flags::kNext;
    }
    // In a real implementation the head descriptor's flags are written
    // last with a release barrier; the functional simulation's publish
    // point is this store sequence as a whole.
    rings_.ring.write_le16(entry + pk::kDescFlagsOffset, desc_flags);

    ++slot;
    if (slot == queue_size_) {
      slot = 0;
      wrap = !wrap;
    }
  }
  next_avail_slot_ = slot;
  avail_wrap_ = wrap;
  num_free_ = static_cast<u16>(num_free_ - buffers.size());
  ++pending_publish_;
  return id;
}

std::optional<u16> PackedVirtqueueDriver::add_chain_indirect(
    std::span<const ChainBuffer> buffers, u64 token) {
  VFPGA_EXPECTS(!buffers.empty());
  VFPGA_EXPECTS(buffers.size() <= queue_size_);  // §2.8.8 table cap
  VFPGA_EXPECTS(negotiated_.has(feature::kRingIndirectDesc));
  if (num_free_ == 0 || free_ids_.empty()) {
    return std::nullopt;
  }
  const u16 id = free_ids_.front();
  free_ids_.pop_front();
  id_desc_count_[id] = 1;  // only the INDIRECT slot occupies the ring
  id_token_[id] = token;

  // Recycle the id's table across uses; grow only when this chain needs
  // more entries than any previous occupant — steady-state adds are
  // allocation-free.
  if (indirect_capacity_[id] < buffers.size()) {
    indirect_table_[id] =
        memory_->allocate(pk::kDescSize * buffers.size(), 16);
    indirect_capacity_[id] = static_cast<u32>(buffers.size());
  }
  const HostAddr table = indirect_table_[id];
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const ChainBuffer& b = buffers[i];
    const HostAddr entry = table + pk::kDescSize * i;
    memory_->write_le64(entry + pk::kDescAddrOffset, b.addr);
    memory_->write_le32(entry + pk::kDescLenOffset, b.len);
    // §2.8.8: WRITE is the only flag valid inside an indirect table;
    // the id field of table entries is reserved.
    memory_->write_le16(entry + pk::kDescIdOffset, 0);
    memory_->write_le16(entry + pk::kDescFlagsOffset,
                        b.device_writable ? pk::flags::kWrite : u16{0});
  }

  const u64 entry = pk::desc_offset(next_avail_slot_);
  rings_.ring.write_le64(entry + pk::kDescAddrOffset, table);
  rings_.ring.write_le32(entry + pk::kDescLenOffset,
                         static_cast<u32>(pk::kDescSize * buffers.size()));
  rings_.ring.write_le16(entry + pk::kDescIdOffset, id);
  rings_.ring.write_le16(entry + pk::kDescFlagsOffset,
                         static_cast<u16>(pk::avail_flags(avail_wrap_) |
                                          pk::flags::kIndirect));
  ++next_avail_slot_;
  if (next_avail_slot_ == queue_size_) {
    next_avail_slot_ = 0;
    avail_wrap_ = !avail_wrap_;
  }
  --num_free_;
  ++pending_publish_;
  return id;
}

u16 PackedVirtqueueDriver::publish() {
  // Packed rings have no avail.idx: descriptors became visible when
  // their flags were stored. publish() only reports the batch size.
  const u16 published = pending_publish_;
  pending_publish_ = 0;
  return published;
}

bool PackedVirtqueueDriver::should_kick() const {
  // Flags-only suppression: read the device event structure.
  const u16 device_flags =
      rings_.device_event.read_le16(pk::event::kFlagsOffset);
  return device_flags != pk::event::kDisable;
}

bool PackedVirtqueueDriver::used_pending() const {
  const u16 desc_flags = rings_.ring.read_le16(
      pk::desc_offset(next_used_slot_) + pk::kDescFlagsOffset);
  return pk::is_used(desc_flags, used_wrap_);
}

std::optional<DriverRing::Completion> PackedVirtqueueDriver::harvest() {
  if (!used_pending()) {
    return std::nullopt;
  }
  const u64 entry = pk::desc_offset(next_used_slot_);
  const u16 id = rings_.ring.read_le16(entry + pk::kDescIdOffset);
  const u32 written = rings_.ring.read_le32(entry + pk::kDescLenOffset);
  if (id >= queue_size_) {
    // Corrupt completion descriptor: refuse it and mark the ring broken
    // so the driver escalates to a device reset.
    mark_broken();
    return std::nullopt;
  }
  const u16 count = id_desc_count_[id];
  if (count == 0) {
    mark_broken();  // completion for a buffer id we never exposed
    return std::nullopt;
  }

  // The device wrote one used descriptor for the chain and skipped ahead
  // by the chain length (§2.8.7).
  for (u16 i = 0; i < count; ++i) {
    ++next_used_slot_;
    if (next_used_slot_ == queue_size_) {
      next_used_slot_ = 0;
      used_wrap_ = !used_wrap_;
    }
  }
  num_free_ = static_cast<u16>(num_free_ + count);
  id_desc_count_[id] = 0;
  free_ids_.push_back(id);
  return Completion{id_token_[id], written, id};
}

void PackedVirtqueueDriver::enable_interrupts() {
  rings_.driver_event.write_le16(pk::event::kFlagsOffset,
                                 pk::event::kEnable);
}

void PackedVirtqueueDriver::disable_interrupts() {
  rings_.driver_event.write_le16(pk::event::kFlagsOffset,
                                 pk::event::kDisable);
}

void PackedVirtqueueDriver::transfer(migrate::StateIo& io) {
  io.expect<u16>(queue_size_);
  io.features(negotiated_);
  RingAddresses addrs = ring_addresses();
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
  free_ids_.resize(io.count<u16>(free_ids_.size(), queue_size_));
  for (u16& id : free_ids_) {
    io.index(id, queue_size_);
  }
  for (u16& c : id_desc_count_) {
    io.u16(c);
  }
  for (u64& t : id_token_) {
    io.u64(t);
  }
  for (HostAddr& a : indirect_table_) {
    io.u64(a);
  }
  for (u32& c : indirect_capacity_) {
    io.u32(c);
  }
  io.index(num_free_, queue_size_ + 1u);
  io.index(next_avail_slot_, queue_size_);
  io.boolean(avail_wrap_);
  io.index(next_used_slot_, queue_size_);
  io.boolean(used_wrap_);
  io.u16(pending_publish_);
  bool is_broken = broken();
  io.boolean(is_broken);
  if (io.loading()) {
    restore_broken(is_broken);
  }
}

}  // namespace vfpga::virtio
