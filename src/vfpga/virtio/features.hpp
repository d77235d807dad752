// VirtIO feature bits and the negotiation-set helper.
//
// Feature negotiation is one of VirtIO's headline properties (§I of the
// paper: "the device and driver can use feature bits to determine the
// subset of supported features to ensure compatibility"). FeatureSet is
// a thin strongly-typed u64 bitset with set-algebra helpers used by both
// the device model and the driver models.
#pragma once

#include <string>

#include "vfpga/common/types.hpp"

namespace vfpga::virtio {

/// Device-independent feature bits (VirtIO 1.2 §6).
namespace feature {
inline constexpr u32 kRingIndirectDesc = 28;
inline constexpr u32 kRingEventIdx = 29;
inline constexpr u32 kVersion1 = 32;
inline constexpr u32 kAccessPlatform = 33;
inline constexpr u32 kRingPacked = 34;
inline constexpr u32 kNotificationData = 38;

// virtio-net feature bits (§5.1.3).
namespace net {
inline constexpr u32 kCsum = 0;        ///< device handles partial csum on TX
inline constexpr u32 kGuestCsum = 1;   ///< driver handles partial csum on RX
inline constexpr u32 kMtu = 3;         ///< device reports maximum MTU
inline constexpr u32 kMac = 5;         ///< device has a MAC address in config
inline constexpr u32 kGuestTso4 = 7;   ///< driver accepts coalesced TCPv4
inline constexpr u32 kGuestUfo = 10;   ///< driver accepts coalesced UDP
inline constexpr u32 kHostTso4 = 11;   ///< device segments TCPv4 (TSO)
inline constexpr u32 kHostUfo = 14;    ///< device segments UDP (USO/UFO)
inline constexpr u32 kMrgRxbuf = 15;   ///< driver can merge receive buffers
inline constexpr u32 kStatus = 16;     ///< config status field is valid
inline constexpr u32 kCtrlVq = 17;     ///< control virtqueue (not offered)
inline constexpr u32 kMq = 22;         ///< multiqueue steering (not offered)
inline constexpr u32 kNotfCoal = 53;   ///< notification coalescing (not offered)
inline constexpr u32 kSpeedDuplex = 63;
}  // namespace net

// virtio-blk feature bits (§5.2.3).
namespace blk {
inline constexpr u32 kSizeMax = 1;  ///< size_max config field is valid
inline constexpr u32 kSegMax = 2;   ///< seg_max config field is valid
inline constexpr u32 kRo = 5;       ///< read-only device (unimplemented)
inline constexpr u32 kBlkSize = 6;
inline constexpr u32 kFlush = 9;
inline constexpr u32 kMq = 12;      ///< num_queues config field is valid
inline constexpr u32 kDiscard = 13; ///< DISCARD requests (unimplemented)
inline constexpr u32 kWriteZeroes = 14;  ///< WRITE_ZEROES (unimplemented)
}  // namespace blk

// virtio-console feature bits (§5.3.3).
namespace console {
inline constexpr u32 kSize = 0;       ///< console size in config
inline constexpr u32 kMultiport = 1;  ///< multiple ports + control queue
}  // namespace console
}  // namespace feature

class FeatureSet {
 public:
  constexpr FeatureSet() = default;
  constexpr explicit FeatureSet(u64 bits) : bits_(bits) {}

  [[nodiscard]] constexpr u64 bits() const { return bits_; }
  [[nodiscard]] constexpr bool has(u32 bit) const {
    return (bits_ & (1ull << bit)) != 0;
  }
  constexpr FeatureSet& set(u32 bit) {
    bits_ |= 1ull << bit;
    return *this;
  }
  constexpr FeatureSet& clear(u32 bit) {
    bits_ &= ~(1ull << bit);
    return *this;
  }

  /// Set intersection: what both sides support.
  [[nodiscard]] constexpr FeatureSet intersect(FeatureSet other) const {
    return FeatureSet{bits_ & other.bits_};
  }
  /// True when every bit in `this` is offered by `other`.
  [[nodiscard]] constexpr bool subset_of(FeatureSet other) const {
    return (bits_ & ~other.bits_) == 0;
  }

  /// 32-bit windows as exposed through device_feature_select.
  [[nodiscard]] constexpr u32 window(u32 select) const {
    return select == 0 ? static_cast<u32>(bits_ & 0xffffffffull)
         : select == 1 ? static_cast<u32>(bits_ >> 32)
                       : 0u;
  }
  constexpr void set_window(u32 select, u32 value) {
    if (select == 0) {
      bits_ = (bits_ & ~0xffffffffull) | value;
    } else if (select == 1) {
      bits_ = (bits_ & 0xffffffffull) | (static_cast<u64>(value) << 32);
    }
  }

  friend constexpr bool operator==(FeatureSet, FeatureSet) = default;

 private:
  u64 bits_ = 0;
};

/// Human-readable dump for logs/examples ("VERSION_1|MAC|STATUS|...").
[[nodiscard]] std::string describe_net_features(FeatureSet features);

}  // namespace vfpga::virtio
