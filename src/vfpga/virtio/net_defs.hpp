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
  static constexpr u32 kMaxPairsOffset = 8;  // le16
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

/// Queue numbering for a single-pair net device (§5.1.2): 0=RX, 1=TX,
/// control queue last when negotiated.
inline constexpr u16 kRxQueue = 0;
inline constexpr u16 kTxQueue = 1;
inline constexpr u16 kCtrlQueue = 2;

/// Multiqueue numbering (§5.1.2 with VIRTIO_NET_F_MQ): receiveq(N) is
/// queue 2N, transmitq(N) is queue 2N+1 and the control queue sits after
/// the last pair the device supports (not the last pair negotiated).
[[nodiscard]] constexpr u16 rx_queue_index(u16 pair) {
  return static_cast<u16>(2 * pair);
}
[[nodiscard]] constexpr u16 tx_queue_index(u16 pair) {
  return static_cast<u16>(2 * pair + 1);
}
[[nodiscard]] constexpr u16 ctrl_queue_index(u16 max_pairs) {
  return static_cast<u16>(2 * max_pairs);
}
[[nodiscard]] constexpr bool is_tx_queue(u16 queue) { return (queue & 1u) != 0; }
[[nodiscard]] constexpr u16 queue_pair_of(u16 queue) {
  return static_cast<u16>(queue / 2);
}

/// Control-virtqueue wire format (§5.1.6.5): a device-readable header
/// {class, command} followed by command data, completed by one
/// device-writable ack byte.
inline constexpr u8 kCtrlClassMq = 4;        ///< VIRTIO_NET_CTRL_MQ
inline constexpr u8 kCtrlMqVqPairsSet = 0;   ///< ..._MQ_VQ_PAIRS_SET
inline constexpr u8 kCtrlOk = 0;             ///< VIRTIO_NET_OK
inline constexpr u8 kCtrlErr = 1;            ///< VIRTIO_NET_ERR
/// Legal bounds for VQ_PAIRS_SET argument (§5.1.6.5.5).
inline constexpr u16 kMqPairsMin = 1;
inline constexpr u16 kMqPairsMax = 0x8000;

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
