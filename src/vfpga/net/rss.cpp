#include "vfpga/net/rss.hpp"

namespace vfpga::net {

namespace {

// The well-known verification key from the MSDN RSS specification —
// using a published key keeps the hash values checkable against
// external test vectors.
constexpr std::array<u8, kRssKeyBytes> kRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
};

/// Bytes in the serialized flow tuple: lo.ip, hi.ip, lo.port, hi.port.
constexpr std::size_t kTupleBytes = 12;

using ToeplitzTables = std::array<std::array<u32, 256>, kTupleBytes>;

/// Toeplitz as table lookups: every set input bit (MSB first) XORs in
/// the 32-bit key window that starts at its bit position, the key read
/// as a big-endian bit string. XOR is linear, so the contribution of one
/// input byte depends only on its value and position: tables[i][b] is
/// the XOR of the windows of b's set bits at byte position i, and the
/// hash is the XOR of one entry per tuple byte.
constexpr ToeplitzTables build_toeplitz_tables() {
  ToeplitzTables tables{};
  for (std::size_t i = 0; i < kTupleBytes; ++i) {
    u64 key_bits = 0;  // key bytes i..i+7, big-endian
    for (std::size_t k = 0; k < 8; ++k) {
      key_bits = (key_bits << 8) | kRssKey[i + k];
    }
    for (u32 b = 1; b < 256; ++b) {
      u32 value = 0;
      for (u32 bit = 0; bit < 8; ++bit) {
        if ((b >> (7 - bit)) & 1u) {
          value ^= static_cast<u32>((key_bits << bit) >> 32);
        }
      }
      tables[i][b] = value;
    }
  }
  return tables;
}

constexpr ToeplitzTables kToeplitzTables = build_toeplitz_tables();

}  // namespace

const std::array<u8, kRssKeyBytes>& rss_key() { return kRssKey; }

u32 rss_flow_hash(Ipv4Addr src_ip, u16 src_port, Ipv4Addr dst_ip,
                  u16 dst_port) {
  // Order the two (addr, port) endpoints numerically so the serialized
  // tuple — and therefore the hash — is identical for a flow and its
  // echo.
  u32 lo_ip = src_ip.value;
  u16 lo_port = src_port;
  u32 hi_ip = dst_ip.value;
  u16 hi_port = dst_port;
  if (lo_ip > hi_ip || (lo_ip == hi_ip && lo_port > hi_port)) {
    std::swap(lo_ip, hi_ip);
    std::swap(lo_port, hi_port);
  }
  const std::array<u8, kTupleBytes> tuple = {
      static_cast<u8>(lo_ip >> 24),   static_cast<u8>(lo_ip >> 16),
      static_cast<u8>(lo_ip >> 8),    static_cast<u8>(lo_ip),
      static_cast<u8>(hi_ip >> 24),   static_cast<u8>(hi_ip >> 16),
      static_cast<u8>(hi_ip >> 8),    static_cast<u8>(hi_ip),
      static_cast<u8>(lo_port >> 8),  static_cast<u8>(lo_port),
      static_cast<u8>(hi_port >> 8),  static_cast<u8>(hi_port),
  };
  u32 hash = 0;
  for (std::size_t i = 0; i < kTupleBytes; ++i) {
    hash ^= kToeplitzTables[i][tuple[i]];
  }
  return hash;
}

}  // namespace vfpga::net
