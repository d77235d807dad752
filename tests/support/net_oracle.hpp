// Reference implementations the library's single-pass net code is
// checked against: the byte-pair RFC 1071 loop, UDP verification by
// copy-and-recompute, the three-builder UDP frame chain (datagram ->
// IPv4 packet -> Ethernet frame) and the bit-serial Toeplitz hash. Each
// is written the straightforward way, independent of the library code
// it checks, so a test can compare outputs byte for byte.
#pragma once

#include <algorithm>
#include <array>
#include <optional>

#include "vfpga/common/endian.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::net_oracle {

/// RFC 1071 ones'-complement sum, one big-endian 16-bit word per step.
class BytePairChecksum {
 public:
  void add(ConstByteSpan data) {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      sum_ += data[0];
      odd_ = false;
      i = 1;
    }
    for (; i + 1 < data.size(); i += 2) {
      sum_ += static_cast<u64>(data[i]) << 8 | data[i + 1];
    }
    if (i < data.size()) {
      sum_ += static_cast<u64>(data[i]) << 8;
      odd_ = true;
    }
  }
  void add_u16(u16 value) { sum_ += value; }
  void add_u32(u32 value) {
    add_u16(static_cast<u16>(value >> 16));
    add_u16(static_cast<u16>(value & 0xffff));
  }
  [[nodiscard]] u16 fold() const {
    u64 s = sum_;
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    return static_cast<u16>(~s & 0xffff);
  }

 private:
  u64 sum_ = 0;
  bool odd_ = false;
};

inline u16 internet_checksum(ConstByteSpan data) {
  BytePairChecksum acc;
  acc.add(data);
  return acc.fold();
}

/// UDP checksum over a datagram whose checksum field is already zero.
inline u16 udp_checksum(ConstByteSpan datagram, net::Ipv4Addr src,
                        net::Ipv4Addr dst) {
  BytePairChecksum acc;
  acc.add_u32(src.value);
  acc.add_u32(dst.value);
  acc.add_u16(static_cast<u16>(net::IpProtocol::Udp));
  acc.add_u16(static_cast<u16>(datagram.size()));
  acc.add(datagram);
  const u16 csum = acc.fold();
  return csum == 0 ? 0xffff : csum;
}

/// The checksum verdict of a parse: nullopt when the length fields
/// reject the datagram, else whether the checksum holds, decided by
/// zeroing the field in a copy and recomputing.
inline std::optional<bool> udp_checksum_verdict(ConstByteSpan data,
                                                net::Ipv4Addr src,
                                                net::Ipv4Addr dst) {
  if (data.size() < net::UdpHeader::kSize) {
    return std::nullopt;
  }
  const u16 length = load_be16(data, 4);
  if (length < net::UdpHeader::kSize || length > data.size()) {
    return std::nullopt;
  }
  const u16 wire = load_be16(data, 6);
  if (wire == 0) {
    return true;
  }
  Bytes copy(data.begin(), data.begin() + length);
  store_be16(ByteSpan{copy}, 6, 0);
  return net_oracle::udp_checksum(copy, src, dst) == wire;
}

inline Bytes build_udp_datagram(const net::UdpHeader& header,
                                net::Ipv4Addr src, net::Ipv4Addr dst,
                                ConstByteSpan payload) {
  const u64 total = net::UdpHeader::kSize + payload.size();
  Bytes datagram(total, 0);
  ByteSpan s{datagram};
  store_be16(s, 0, header.src_port);
  store_be16(s, 2, header.dst_port);
  store_be16(s, 4, static_cast<u16>(total));
  std::copy(payload.begin(), payload.end(),
            datagram.begin() + net::UdpHeader::kSize);
  store_be16(s, 6, net_oracle::udp_checksum(datagram, src, dst));
  return datagram;
}

inline Bytes build_ipv4_packet(net::Ipv4Header header, ConstByteSpan payload) {
  const u64 total = net::Ipv4Header::kSize + payload.size();
  Bytes packet(total, 0);
  ByteSpan s{packet};
  packet[0] = 0x45;
  store_be16(s, 2, static_cast<u16>(total));
  store_be16(s, 4, header.identification);
  store_be16(s, 6, 0x4000);
  packet[8] = header.ttl;
  packet[9] = static_cast<u8>(header.protocol);
  store_be32(s, 12, header.src.value);
  store_be32(s, 16, header.dst.value);
  store_be16(s, 10, net_oracle::internet_checksum(
                        ConstByteSpan{packet}.first(net::Ipv4Header::kSize)));
  std::copy(payload.begin(), payload.end(),
            packet.begin() + net::Ipv4Header::kSize);
  return packet;
}

inline Bytes build_ethernet_frame(const net::EthernetHeader& header,
                                  ConstByteSpan payload) {
  const u64 payload_len =
      std::max<u64>(payload.size(), net::kMinEthernetPayload);
  Bytes frame(net::EthernetHeader::kSize + payload_len, 0);
  std::copy(header.dst.octets.begin(), header.dst.octets.end(),
            frame.begin());
  std::copy(header.src.octets.begin(), header.src.octets.end(),
            frame.begin() + 6);
  store_be16(ByteSpan{frame}, 12, static_cast<u16>(header.type));
  std::copy(payload.begin(), payload.end(),
            frame.begin() + net::EthernetHeader::kSize);
  return frame;
}

/// The whole chain: datagram, packet, frame. `zero_udp_checksum`
/// clears the UDP checksum field afterwards, as a checksum-offloading
/// stack leaves it.
inline Bytes build_udp_frame(const net::UdpFrameHeader& h,
                             ConstByteSpan payload,
                             bool zero_udp_checksum = false) {
  const Bytes udp =
      net_oracle::build_udp_datagram(h.udp, h.ip.src, h.ip.dst, payload);
  net::Ipv4Header ip = h.ip;
  ip.protocol = net::IpProtocol::Udp;
  Bytes packet = net_oracle::build_ipv4_packet(ip, udp);
  if (zero_udp_checksum) {
    store_be16(ByteSpan{packet}, net::Ipv4Header::kSize + 6, 0);
  }
  net::EthernetHeader eth = h.eth;
  eth.type = net::EtherType::Ipv4;
  return net_oracle::build_ethernet_frame(eth, packet);
}

/// The MSDN RSS verification key, a copy of the one net/rss hashes with.
inline constexpr std::array<u8, net::kRssKeyBytes> kRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
};

/// Toeplitz, one input bit per step: every set bit (MSB first) XORs in
/// the 32-bit key window aligned at its position.
inline u32 toeplitz_hash(ConstByteSpan data,
                         const std::array<u8, net::kRssKeyBytes>& key) {
  u64 window = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    window = (window << 8) | key[i];
  }
  u32 result = 0;
  std::size_t next_key_byte = 8;
  for (const u8 byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1u) {
        result ^= static_cast<u32>(window >> 32);
      }
      window <<= 1;
    }
    window |= key[next_key_byte++];
  }
  return result;
}

/// rss_flow_hash's symmetric 12-byte serialization, hashed bit by bit.
inline u32 rss_flow_hash(net::Ipv4Addr src_ip, u16 src_port,
                         net::Ipv4Addr dst_ip, u16 dst_port) {
  u32 lo_ip = src_ip.value;
  u16 lo_port = src_port;
  u32 hi_ip = dst_ip.value;
  u16 hi_port = dst_port;
  if (lo_ip > hi_ip || (lo_ip == hi_ip && lo_port > hi_port)) {
    std::swap(lo_ip, hi_ip);
    std::swap(lo_port, hi_port);
  }
  std::array<u8, 12> tuple{};
  store_be32(ByteSpan{tuple}, 0, lo_ip);
  store_be32(ByteSpan{tuple}, 4, hi_ip);
  store_be16(ByteSpan{tuple}, 8, lo_port);
  store_be16(ByteSpan{tuple}, 10, hi_port);
  return net_oracle::toeplitz_hash(tuple, kRssKey);
}

}  // namespace vfpga::net_oracle
