// virtio-blk personality: a block device backed by FPGA memory.
//
// The third device type ("Added support for more VirtIO device types",
// paper contribution 1), grown from a single-queue stub into a full
// storage datapath: IN/OUT/FLUSH request parsing with a per-request
// status byte (any other type is answered UNSUPP), seg_max/size_max
// limits enforced device-side (the driver enforces them host-side),
// multi-queue under VIRTIO_BLK_F_MQ, and a backing-store model with
// seek/transfer/flush cost segments.
//
// Durability follows the spec's write-barrier contract (§5.2.6.1 with
// VIRTIO_BLK_F_FLUSH): a completed OUT lands in the volatile write-back
// layer; only a completed FLUSH makes everything completed before it
// durable. simulate_power_loss() reverts the volatile layer to the
// durable copy so tests can assert the barrier semantics directly.
//
// Both layers are sparse mem::HostMemory page stores addressed by byte
// offset: a page never written reads as zeroes and costs nothing, so a
// device costs what its requests touch, not its capacity.
#pragma once

#include <memory>

#include "vfpga/core/user_logic.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/virtio/blk_defs.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::core {

struct BlkDeviceConfig {
  u64 capacity_sectors = 2048;  ///< 1 MiB at 512 B/sector

  // ---- limits advertised through virtio_blk_config -----------------------------
  u32 size_max = 65536;  ///< max bytes of any single segment (F_SIZE_MAX)
  u32 seg_max = 16;      ///< max data segments per request (F_SEG_MAX)
  u16 num_queues = 1;    ///< >1 offers VIRTIO_BLK_F_MQ

  /// Stall charged when the fault plane injects a backing-store timeout
  /// (the request still completes — with VIRTIO_BLK_S_IOERR — after the
  /// device-internal deadline expires).
  u64 backing_timeout_cycles = 2'000'000;
};

/// Optimal logical block size the personality always advertises
/// (F_BLK_SIZE).
inline constexpr u32 kBlkSize = 512;

/// Request pipeline and backing-store cost model (fabric cycles).
struct BlkTiming {
  u64 fixed_cycles;
  u64 cycles_per_beat;
  /// Fixed cost of repositioning the backing store plus a distance
  /// component: the model keeps a per-device head position and charges
  /// proportionally to the seek span, so sequential workloads beat
  /// random ones like they do on any real medium with locality.
  u64 seek_base_cycles;
  u64 seek_cycles_per_mib;
  /// FLUSH drains the dirty set into the durable layer: base cost plus
  /// a per-dirty-KiB component.
  u64 flush_base_cycles;
  u64 flush_cycles_per_dirty_kib;
};
inline constexpr BlkTiming kBlkTiming{.fixed_cycles = 40,
                                      .cycles_per_beat = 1,
                                      .seek_base_cycles = 24,
                                      .seek_cycles_per_mib = 64,
                                      .flush_base_cycles = 180,
                                      .flush_cycles_per_dirty_kib = 12};

class BlkDeviceLogic final : public UserLogic {
 public:
  explicit BlkDeviceLogic(BlkDeviceConfig config = {});

  [[nodiscard]] virtio::DeviceType device_type() const override {
    return virtio::DeviceType::Block;
  }
  [[nodiscard]] virtio::FeatureSet device_features() const override;
  [[nodiscard]] u16 queue_count() const override {
    return config_.num_queues;
  }
  void on_driver_ready(virtio::FeatureSet negotiated) override;
  void attach_fault_plane(fault::FaultPlane* plane) override {
    fault_ = plane;
  }
  [[nodiscard]] u32 device_config_size() const override {
    return virtio::blk::BlkConfigLayout::kSize;
  }
  [[nodiscard]] u8 device_config_read(u32 offset) const override;
  std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                  u32 writable_capacity,
                                  const ChainMeta& meta) override;

  // ---- stats -------------------------------------------------------------------
  [[nodiscard]] u64 reads() const { return reads_; }
  [[nodiscard]] u64 writes() const { return writes_; }
  [[nodiscard]] u64 flushes() const { return flushes_; }
  [[nodiscard]] u64 errors() const { return errors_; }
  [[nodiscard]] u64 header_faults() const { return header_faults_; }
  [[nodiscard]] u64 timeout_faults() const { return timeout_faults_; }
  [[nodiscard]] u64 dirty_sectors() const { return dirty_list_.size(); }
  [[nodiscard]] u64 dirty_high_water() const { return dirty_high_water_; }

  /// A copy of the durable layer: what survives power loss.
  [[nodiscard]] Bytes durable_storage() const;
  /// Bytes backed by pages in the volatile and durable layers together.
  [[nodiscard]] u64 resident_bytes() const {
    return storage_->resident_bytes() + durable_->resident_bytes();
  }
  /// Revert the volatile layer to the durable copy — the storage the
  /// host would observe after a crash. Tests use it to assert FLUSH
  /// barrier ordering.
  void simulate_power_loss();

  [[nodiscard]] const BlkDeviceConfig& config() const { return config_; }

  void transfer(migrate::StateIo& io);

 private:
  [[nodiscard]] u64 capacity_bytes() const {
    return config_.capacity_sectors * virtio::blk::kSectorBytes;
  }
  [[nodiscard]] bool in_store(u64 sector, u64 bytes) const;
  [[nodiscard]] u64 seek_cycles(u64 sector);
  [[nodiscard]] u64 transfer_cycles(u64 bytes) const;
  void mark_dirty(u64 byte_offset, u64 bytes);
  void clear_dirty();
  Response status_only(u8 status, u64 cycles, u16 queue);

  BlkDeviceConfig config_;
  fault::FaultPlane* fault_ = nullptr;
  // Replaced wholesale by power loss and by a restore, hence the pointers.
  std::unique_ptr<mem::HostMemory> storage_;  ///< volatile write-back layer
  std::unique_ptr<mem::HostMemory> durable_;
  std::vector<u8> dirty_;  ///< per-sector write-back flag
  /// The sectors whose flag is set, in the order they were dirtied: FLUSH
  /// and power loss visit these rather than every sector.
  std::vector<u64> dirty_list_;
  u64 dirty_high_water_ = 0;
  u64 head_sector_ = 0;  ///< backing-store position for the seek model
  u64 reads_ = 0;
  u64 writes_ = 0;
  u64 flushes_ = 0;
  u64 errors_ = 0;
  u64 header_faults_ = 0;
  u64 timeout_faults_ = 0;
};

}  // namespace vfpga::core
