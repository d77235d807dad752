#include "vfpga/core/blk_device.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::core {

using virtio::blk::BlkConfigLayout;
using virtio::blk::RequestHeader;
using virtio::blk::RequestType;

namespace {

constexpr u64 kTransportBits = ((1ull << 42) - 1) & ~((1ull << 24) - 1);

using Store = std::unique_ptr<mem::HostMemory>;

/// A store holding the non-zero pages of `flat` (byte 0 at offset 0).
Store store_of(ConstByteSpan flat) {
  auto store = std::make_unique<mem::HostMemory>();
  for (u64 at = 0; at < flat.size(); at += mem::HostMemory::kPageSize) {
    const ConstByteSpan page = flat.subspan(
        at, std::min<u64>(mem::HostMemory::kPageSize, flat.size() - at));
    if (std::any_of(page.begin(), page.end(), [](u8 b) { return b != 0; })) {
      store->write(at, page);
    }
  }
  return store;
}

}  // namespace

BlkDeviceLogic::BlkDeviceLogic(BlkDeviceConfig config)
    : config_(config),
      storage_(std::make_unique<mem::HostMemory>()),
      durable_(std::make_unique<mem::HostMemory>()),
      dirty_(config.capacity_sectors, 0) {
  VFPGA_EXPECTS(config_.capacity_sectors <=
                ~u64{0} / virtio::blk::kSectorBytes);
  VFPGA_EXPECTS(config_.num_queues >= 1);
  VFPGA_EXPECTS(config_.seg_max >= 1);
  VFPGA_EXPECTS(config_.size_max >= virtio::blk::kRequestHeaderBytes);
}

virtio::FeatureSet BlkDeviceLogic::device_features() const {
  virtio::FeatureSet f;
  f.set(virtio::feature::blk::kSizeMax);
  f.set(virtio::feature::blk::kSegMax);
  f.set(virtio::feature::blk::kBlkSize);
  f.set(virtio::feature::blk::kFlush);
  if (config_.num_queues > 1) {
    f.set(virtio::feature::blk::kMq);
  }
  return f;
}

void BlkDeviceLogic::on_driver_ready(virtio::FeatureSet negotiated) {
  // Same audit the net personality runs at DRIVER_OK: every negotiated
  // device-class bit must be one we offered.
  VFPGA_EXPECTS(
      virtio::FeatureSet{negotiated.bits() & ~kTransportBits}.subset_of(
          device_features()));
  // Config-space consistency: a driver that accepted VIRTIO_BLK_F_MQ
  // will read num_queues and spread requests across that many queues —
  // if the config structure says 1, the device and driver disagree
  // about how many rings exist. Fail loudly at DRIVER_OK.
  VFPGA_EXPECTS(!negotiated.has(virtio::feature::blk::kMq) ||
                config_.num_queues > 1);
}

u8 BlkDeviceLogic::device_config_read(u32 offset) const {
  const auto field8 = [offset](u32 base, u64 value) {
    return static_cast<u8>(value >> (8 * (offset - base)));
  };
  if (offset < BlkConfigLayout::kCapacityOffset + 8) {
    return field8(BlkConfigLayout::kCapacityOffset, config_.capacity_sectors);
  }
  if (offset >= BlkConfigLayout::kSizeMaxOffset &&
      offset < BlkConfigLayout::kSizeMaxOffset + 4) {
    return field8(BlkConfigLayout::kSizeMaxOffset, config_.size_max);
  }
  if (offset >= BlkConfigLayout::kSegMaxOffset &&
      offset < BlkConfigLayout::kSegMaxOffset + 4) {
    return field8(BlkConfigLayout::kSegMaxOffset, config_.seg_max);
  }
  if (offset >= BlkConfigLayout::kBlkSizeOffset &&
      offset < BlkConfigLayout::kBlkSizeOffset + 4) {
    return field8(BlkConfigLayout::kBlkSizeOffset, kBlkSize);
  }
  if (offset >= BlkConfigLayout::kNumQueuesOffset &&
      offset < BlkConfigLayout::kNumQueuesOffset + 2) {
    return field8(BlkConfigLayout::kNumQueuesOffset, config_.num_queues);
  }
  return 0;
}

bool BlkDeviceLogic::in_store(u64 sector, u64 bytes) const {
  // The sector is compared before it is scaled to bytes, so a hostile
  // one cannot wrap around onto a low sector.
  return sector <= config_.capacity_sectors &&
         bytes <= (config_.capacity_sectors - sector) *
                      virtio::blk::kSectorBytes;
}

u64 BlkDeviceLogic::seek_cycles(u64 sector) {
  const u64 distance =
      sector > head_sector_ ? sector - head_sector_ : head_sector_ - sector;
  const u64 distance_bytes = distance * virtio::blk::kSectorBytes;
  return kBlkTiming.seek_base_cycles +
         ((distance_bytes * kBlkTiming.seek_cycles_per_mib) >> 20);
}

u64 BlkDeviceLogic::transfer_cycles(u64 bytes) const {
  return ((bytes + 7) / 8) * kBlkTiming.cycles_per_beat;
}

void BlkDeviceLogic::mark_dirty(u64 byte_offset, u64 bytes) {
  if (bytes == 0) {
    return;
  }
  const u64 first = byte_offset / virtio::blk::kSectorBytes;
  const u64 last = (byte_offset + bytes - 1) / virtio::blk::kSectorBytes;
  for (u64 s = first; s <= last; ++s) {
    if (dirty_[s] == 0) {
      dirty_[s] = 1;
      dirty_list_.push_back(s);
    }
  }
  dirty_high_water_ = std::max<u64>(dirty_high_water_, dirty_list_.size());
}

UserLogic::Response BlkDeviceLogic::status_only(u8 status, u64 cycles,
                                                u16 queue) {
  Response response;
  response.target_queue = queue;
  response.chain_status = status;
  response.processing_cycles = cycles;
  if (status != virtio::blk::kStatusOk) {
    ++errors_;
  }
  return response;
}

std::optional<UserLogic::Response> BlkDeviceLogic::process(
    u16 queue, ConstByteSpan payload, u32 writable_capacity,
    const ChainMeta& meta) {
  VFPGA_EXPECTS(queue < config_.num_queues);
  VFPGA_EXPECTS(writable_capacity >= 1);  // status byte is always writable

  // A well-formed request has at least the header (RO) and status (WO)
  // descriptors; everything beyond those is data (§5.2.6).
  if (payload.size() < virtio::blk::kRequestHeaderBytes ||
      meta.readable_descriptors + meta.writable_descriptors < 2) {
    return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                       queue);
  }

  // Fault plane: the internal bus ECC detects the flipped header beats
  // and the pipeline rejects the request without executing it — modelled
  // as detected corruption so a flipped sector field can never become a
  // silent wrong-sector write.
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kBlkHeaderCorrupt)) {
    ++header_faults_;
    return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                       queue);
  }

  const RequestHeader header = RequestHeader::decode(payload);
  if (header.reserved != 0) {
    return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                       queue);
  }

  // Device-side limit enforcement (§5.2.5.2): the driver negotiated
  // SEG_MAX/SIZE_MAX, so a violating chain is a protocol error the
  // device refuses — with a status byte, not a device reset.
  const u32 data_segments =
      meta.readable_descriptors + meta.writable_descriptors - 2;
  if (data_segments > config_.seg_max) {
    return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                       queue);
  }
  if (std::max(meta.largest_readable_bytes, meta.largest_writable_bytes) >
      config_.size_max) {
    return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                       queue);
  }

  // Backing-store timeout: the medium stops answering; the device-internal
  // deadline expires and the request completes with IOERR after the full
  // timeout stall. The device itself stays healthy — no reset needed.
  if (fault_ != nullptr &&
      fault_->should_inject(fault::FaultClass::kBlkBackingTimeout)) {
    ++timeout_faults_;
    return status_only(virtio::blk::kStatusIoErr,
                       kBlkTiming.fixed_cycles + config_.backing_timeout_cycles,
                       queue);
  }

  switch (header.type) {
    case RequestType::Out: {  // host -> device write
      const ConstByteSpan data =
          payload.subspan(virtio::blk::kRequestHeaderBytes);
      if (!in_store(header.sector, data.size())) {
        return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                           queue);
      }
      const u64 byte_offset = header.sector * virtio::blk::kSectorBytes;
      const u64 cycles = kBlkTiming.fixed_cycles + seek_cycles(header.sector) +
                         transfer_cycles(data.size());
      storage_->write(byte_offset, data);
      mark_dirty(byte_offset, data.size());
      head_sector_ =
          header.sector + data.size() / virtio::blk::kSectorBytes;
      ++writes_;
      return status_only(virtio::blk::kStatusOk, cycles, queue);
    }
    case RequestType::In: {  // device -> host read
      const u64 data_len = writable_capacity - 1;  // minus status byte
      if (!in_store(header.sector, data_len)) {
        return status_only(virtio::blk::kStatusIoErr, kBlkTiming.fixed_cycles,
                           queue);
      }
      Response response = status_only(virtio::blk::kStatusOk,
                                      kBlkTiming.fixed_cycles +
                                          seek_cycles(header.sector) +
                                          transfer_cycles(data_len),
                                      queue);
      response.payload.resize(data_len);
      storage_->read(header.sector * virtio::blk::kSectorBytes,
                     response.payload);
      head_sector_ = header.sector + data_len / virtio::blk::kSectorBytes;
      ++reads_;
      return response;
    }
    case RequestType::Flush: {
      // Write barrier: every OUT completed before this FLUSH becomes
      // durable. Cost scales with the dirty span being drained.
      const u64 dirty_kib =
          dirty_list_.size() * virtio::blk::kSectorBytes / 1024;
      const u64 cycles = kBlkTiming.fixed_cycles +
                         kBlkTiming.flush_base_cycles +
                         dirty_kib * kBlkTiming.flush_cycles_per_dirty_kib;
      std::array<u8, virtio::blk::kSectorBytes> sector{};
      for (const u64 s : dirty_list_) {
        storage_->read(s * virtio::blk::kSectorBytes, sector);
        durable_->write(s * virtio::blk::kSectorBytes, sector);
      }
      clear_dirty();
      ++flushes_;
      return status_only(virtio::blk::kStatusOk, cycles, queue);
    }
  }
  return status_only(virtio::blk::kStatusUnsupported, kBlkTiming.fixed_cycles,
                     queue);
}

Bytes BlkDeviceLogic::durable_storage() const {
  Bytes out(capacity_bytes());
  durable_->read(0, out);
  return out;
}

void BlkDeviceLogic::simulate_power_loss() {
  storage_ = std::make_unique<mem::HostMemory>();
  std::array<u8, mem::HostMemory::kPageSize> page{};
  for (u64 index : durable_->resident_page_indices()) {
    durable_->read_page(index, page);
    storage_->write_page(index, page);
  }
  clear_dirty();
}

void BlkDeviceLogic::clear_dirty() {
  for (const u64 s : dirty_list_) {
    dirty_[s] = 0;
  }
  dirty_list_.clear();
}

void BlkDeviceLogic::transfer(migrate::StateIo& io) {
  // The three layers are sized by the capacity: written as flat blobs,
  // read back only into a target of the same size. A data layer is
  // replaced only once its whole blob has been read, and keeps only the
  // blob's non-zero pages.
  for (Store* layer : {&storage_, &durable_}) {
    Bytes flat(capacity_bytes());
    io.expect<u64>(flat.size());
    if (!io.loading()) {
      (*layer)->read(0, flat);
    }
    io.bytes(flat);
    if (io.loading() && !io.failed()) {
      *layer = store_of(flat);
    }
  }
  io.expect<u64>(dirty_.size());
  io.bytes(dirty_);
  u64 dirty_count = dirty_list_.size();
  io.u64(dirty_count);
  if (io.loading() && !io.failed()) {
    // The image holds the flags and their count; the list is rebuilt
    // from the flags, and a count that disagrees with them (it would
    // price the next FLUSH) is malformed.
    dirty_list_.clear();
    for (u64 s = 0; s < dirty_.size(); ++s) {
      if (dirty_[s] != 0) {
        dirty_list_.push_back(s);
      }
    }
    if (dirty_list_.size() != dirty_count) {
      io.fail();
    }
  }
  io.u64(dirty_high_water_);
  io.u64(head_sector_);
  io.u64(reads_);
  io.u64(writes_);
  io.u64(flushes_);
  io.u64(errors_);
  io.u64(header_faults_);
  io.u64(timeout_faults_);
}

}  // namespace vfpga::core
