// Receive-side scaling: Toeplitz flow hashing and queue steering.
//
// Both endpoints of the multi-queue data plane use the same hash to pick
// a queue pair for a UDP 4-tuple: the host netstack when choosing which
// TX queue carries a flow, and the FPGA user logic when steering the
// echo completion back through its RSS indirection table. The hash is
// the classic Toeplitz construction (MSDN RSS spec; also hXDP's flow
// dispatch stage) over a symmetric serialization of the 4-tuple, so a
// flow and its echo — whose source/destination are swapped — land on the
// same pair without the device needing per-flow state.
#pragma once

#include <array>

#include "vfpga/common/types.hpp"
#include "vfpga/net/addr.hpp"

namespace vfpga::net {

/// Toeplitz secret key length (matches the 40-byte key Microsoft's RSS
/// verification suite uses; the value itself is fixed so both sides of
/// the simulation agree without negotiation).
inline constexpr std::size_t kRssKeyBytes = 40;

/// Entries in the device's RSS indirection table. Power of two so the
/// table index is a cheap mask, and large enough that 1..64 active
/// pairs spread evenly.
inline constexpr u16 kSteeringTableSize = 128;

/// The fixed Toeplitz key shared by host and device models.
[[nodiscard]] const std::array<u8, kRssKeyBytes>& rss_key();

/// Symmetric flow hash over the UDP 4-tuple: the (addr, port) endpoints
/// are ordered numerically before serialization, so hash(A->B) ==
/// hash(B->A) and an echoed packet steers back to its originating pair.
/// Computed by per-byte lookup tables built from rss_key() at compile
/// time.
[[nodiscard]] u32 rss_flow_hash(Ipv4Addr src_ip, u16 src_port, Ipv4Addr dst_ip,
                                u16 dst_port);

/// Map a flow hash onto one of `active_pairs` queue pairs through the
/// shared indirection-table geometry. Host and device must use this
/// same reduction or steering silently diverges.
[[nodiscard]] constexpr u16 steer(u32 hash, u16 active_pairs) {
  const u16 slot = static_cast<u16>(hash % kSteeringTableSize);
  return active_pairs <= 1 ? u16{0} : static_cast<u16>(slot % active_pairs);
}

/// Find the first source port >= `from` whose symmetric flow hash
/// steers (src_ip, port) -> (dst_ip, dst_port) onto queue pair
/// `want_pair` out of `active_pairs`. Deterministic (walks upward from
/// `from`) so flow identities are stable across trials, and guaranteed
/// to terminate before wrapping: the Toeplitz hash varies with every
/// port bit, covering all pair residues within a handful of candidates.
/// Shared by the multi-flow harness and the flowgen traffic generator —
/// both must agree with the device's steering or affinity claims are
/// meaningless.
[[nodiscard]] u16 search_source_port(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                     u16 dst_port, u16 active_pairs,
                                     u16 want_pair, u16 from);

}  // namespace vfpga::net
