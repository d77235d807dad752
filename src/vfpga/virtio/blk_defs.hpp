// virtio-blk structures (VirtIO 1.2 §5.2).
//
// A second "more VirtIO device types" personality (paper contribution
// bullet 1): a block device backed by FPGA BRAM. Requests carry a
// 16-byte header (type, reserved, sector), the data buffers, and a
// trailing 1-byte status the device writes.
#pragma once

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga::virtio::blk {

/// virtio_blk_config field offsets (§5.2.4). num_queues is only valid
/// under VIRTIO_BLK_F_MQ. The structure keeps the spec's size up to the
/// discard fields (offsets 36-47), which read as 0: F_DISCARD is never
/// offered.
struct BlkConfigLayout {
  static constexpr u32 kCapacityOffset = 0;   // le64, in 512-byte sectors
  static constexpr u32 kSizeMaxOffset = 8;    // le32, bytes per segment
  static constexpr u32 kSegMaxOffset = 12;    // le32, data segments/request
  static constexpr u32 kBlkSizeOffset = 20;   // le32
  static constexpr u32 kNumQueuesOffset = 34; // le16 (VIRTIO_BLK_F_MQ)
  static constexpr u32 kSize = 48;
};

/// The request types the device serves (§5.2.6). Every other type,
/// GET_ID (8) and DISCARD (11) included, completes with
/// kStatusUnsupported.
enum class RequestType : u32 {
  In = 0,       ///< read from device
  Out = 1,      ///< write to device
  Flush = 4,    ///< write barrier: everything completed before is durable
};

/// Status byte the device writes into the last descriptor.
inline constexpr u8 kStatusOk = 0;
inline constexpr u8 kStatusIoErr = 1;
inline constexpr u8 kStatusUnsupported = 2;

inline constexpr u64 kSectorBytes = 512;
inline constexpr u64 kRequestHeaderBytes = 16;

/// Decode the request header from the first descriptor's bytes.
struct RequestHeader {
  RequestType type = RequestType::In;
  u32 reserved = 0;  ///< drivers must write 0 (§5.2.6.1)
  u64 sector = 0;

  static RequestHeader decode(ConstByteSpan raw) {
    VFPGA_EXPECTS(raw.size() >= kRequestHeaderBytes);
    RequestHeader h;
    h.type = static_cast<RequestType>(load_le32(raw, 0));
    h.reserved = load_le32(raw, 4);
    h.sector = load_le64(raw, 8);
    return h;
  }
  void encode(ByteSpan out) const {
    VFPGA_EXPECTS(out.size() >= kRequestHeaderBytes);
    store_le32(out, 0, static_cast<u32>(type));
    store_le32(out, 4, reserved);
    store_le64(out, 8, sector);
  }
};

/// The first request queue (additional queues exist under F_MQ).
inline constexpr u16 kRequestQueue = 0;

}  // namespace vfpga::virtio::blk
