// Receive-side scaling: Toeplitz flow hashing and queue steering.
//
// FlowGen partitions its flows over queue pairs with this hash, and
// sim_speed runs one pair per lane, so a lane's flows are the ones an
// RSS device would steer to that pair. The hash is the classic Toeplitz
// construction (MSDN RSS spec; also hXDP's flow dispatch stage) over a
// symmetric serialization of the 4-tuple, so a flow and its echo —
// whose source/destination are swapped — land on the same pair without
// per-flow state.
#pragma once

#include <cstddef>

#include "vfpga/common/types.hpp"
#include "vfpga/net/addr.hpp"

namespace vfpga::net {

/// Toeplitz secret key length (matches the 40-byte key Microsoft's RSS
/// verification suite uses; the value itself is fixed).
inline constexpr std::size_t kRssKeyBytes = 40;

/// Entries in an RSS indirection table. Power of two so the table index
/// is a cheap mask, and large enough that 1..64 active pairs spread
/// evenly.
inline constexpr u16 kSteeringTableSize = 128;

/// Symmetric flow hash over the UDP 4-tuple: the (addr, port) endpoints
/// are ordered numerically before serialization, so hash(A->B) ==
/// hash(B->A) and an echoed packet steers back to its originating pair.
/// Computed by per-byte lookup tables built from the fixed key at
/// compile time.
[[nodiscard]] u32 rss_flow_hash(Ipv4Addr src_ip, u16 src_port, Ipv4Addr dst_ip,
                                u16 dst_port);

/// Map a flow hash onto one of `active_pairs` queue pairs through the
/// indirection-table geometry.
[[nodiscard]] constexpr u16 steer(u32 hash, u16 active_pairs) {
  const u16 slot = static_cast<u16>(hash % kSteeringTableSize);
  return active_pairs <= 1 ? u16{0} : static_cast<u16>(slot % active_pairs);
}

}  // namespace vfpga::net
