// virtio-net wire and configuration structures (VirtIO 1.2 §5.1).
//
// The paper's test device type: the FPGA presents a network device, the
// host routes UDP packets to it through the normal socket API, and each
// packet crossing a virtqueue is prefixed with a virtio_net_hdr. The
// device-specific configuration structure (MAC, status, MTU, ...) is the
// "main modification to the design presented in [14]" (§III-A) — the
// controller maps it at the Device cfg_type capability.
#pragma once

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga::virtio::net {

/// virtio_net_hdr (§5.1.6): prefixed to every frame in both directions.
/// With VERSION_1 the 12-byte layout (including num_buffers) is always
/// used regardless of MRG_RXBUF.
struct NetHeader {
  u8 flags = 0;
  u8 gso_type = 0;
  u16 hdr_len = 0;
  u16 gso_size = 0;
  u16 csum_start = 0;
  u16 csum_offset = 0;
  u16 num_buffers = 0;

  static constexpr u64 kSize = 12;

  /// flags bits.
  static constexpr u8 kNeedsCsum = 1;   ///< csum_start/offset are valid
  static constexpr u8 kDataValid = 2;   ///< device validated the checksum
  /// gso_type values. The device segments nothing: a TX header with any
  /// type but kGsoNone is dropped.
  static constexpr u8 kGsoNone = 0;
  static constexpr u8 kGsoUdp = 3;    ///< VIRTIO_NET_HDR_GSO_UDP

  void encode(ByteSpan out) const;
  static NetHeader decode(ConstByteSpan raw);
};

/// virtio_net_config (§5.1.4) — the device-specific structure.
struct NetConfigLayout {
  static constexpr u32 kMacOffset = 0;       // 6 bytes
  static constexpr u32 kStatusOffset = 6;    // le16
  static constexpr u32 kMaxPairsOffset = 8;  // le16, valid only with MQ
  static constexpr u32 kMtuOffset = 10;      // le16
  static constexpr u32 kSpeedOffset = 12;    // le32
  static constexpr u32 kDuplexOffset = 16;   // u8
  static constexpr u32 kSize = 20;
};

/// The MTU the FPGA's net personality advertises in its config space,
/// the 1500-byte Ethernet MTU the paper measures at (§III-B).
inline constexpr u16 kDeviceMtu = 1500;

/// Status field bits.
inline constexpr u16 kNetStatusLinkUp = 1;
inline constexpr u16 kNetStatusAnnounce = 2;

/// Queue numbering (§5.1.2): the device has one RX/TX pair and no
/// control queue, since it offers neither VIRTIO_NET_F_MQ nor
/// VIRTIO_NET_F_CTRL_VQ.
inline constexpr u16 kRxQueue = 0;
inline constexpr u16 kTxQueue = 1;

inline void NetHeader::encode(ByteSpan out) const {
  VFPGA_EXPECTS(out.size() >= kSize);
  out[0] = flags;
  out[1] = gso_type;
  store_le16(out, 2, hdr_len);
  store_le16(out, 4, gso_size);
  store_le16(out, 6, csum_start);
  store_le16(out, 8, csum_offset);
  store_le16(out, 10, num_buffers);
}

inline NetHeader NetHeader::decode(ConstByteSpan raw) {
  VFPGA_EXPECTS(raw.size() >= kSize);
  NetHeader h;
  h.flags = raw[0];
  h.gso_type = raw[1];
  h.hdr_len = load_le16(raw, 2);
  h.gso_size = load_le16(raw, 4);
  h.csum_start = load_le16(raw, 6);
  h.csum_offset = load_le16(raw, 8);
  h.num_buffers = load_le16(raw, 10);
  return h;
}

}  // namespace vfpga::virtio::net
