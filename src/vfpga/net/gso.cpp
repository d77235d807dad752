#include "vfpga/net/gso.hpp"

#include <algorithm>

#include "vfpga/common/endian.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::net {
namespace {

// Fixed layout of the stack's UDP frames (no IP options, no VLANs).
constexpr u64 kIpOff = EthernetHeader::kSize;
constexpr u64 kUdpOff = kIpOff + Ipv4Header::kSize;
constexpr u64 kHeadersLen = kUdpOff + UdpHeader::kSize;

// Field offsets inside the frame.
constexpr u64 kIpTotalLen = kIpOff + 2;
constexpr u64 kIpId = kIpOff + 4;
constexpr u64 kIpCsum = kIpOff + 10;
constexpr u64 kIpSrc = kIpOff + 12;
constexpr u64 kIpDst = kIpOff + 16;
constexpr u64 kUdpLen = kUdpOff + 4;
constexpr u64 kUdpCsum = kUdpOff + 6;

bool is_simple_udp_frame(ConstByteSpan frame) {
  return frame.size() >= kHeadersLen &&
         load_be16(frame, 12) == static_cast<u16>(EtherType::Ipv4) &&
         frame[kIpOff] == 0x45 &&
         frame[kIpOff + 9] == static_cast<u8>(IpProtocol::Udp);
}

}  // namespace

std::vector<Bytes> gso_segment_udp(ConstByteSpan superframe, u16 gso_size,
                                   bool fill_checksums) {
  std::vector<Bytes> segments;
  if (gso_size == 0 || !is_simple_udp_frame(superframe)) {
    return segments;
  }
  const u16 ip_total = load_be16(superframe, kIpTotalLen);
  if (ip_total < Ipv4Header::kSize + UdpHeader::kSize ||
      kIpOff + ip_total > superframe.size()) {
    return segments;
  }
  const u64 payload_len =
      static_cast<u64>(ip_total) - Ipv4Header::kSize - UdpHeader::kSize;
  const ConstByteSpan payload = superframe.subspan(kHeadersLen, payload_len);
  const u32 src = load_be32(superframe, kIpSrc);
  const u32 dst = load_be32(superframe, kIpDst);
  const u16 base_id = load_be16(superframe, kIpId);
  const u64 count =
      std::max<u64>(1, (payload_len + gso_size - 1) / gso_size);

  u16 prev_csum = 0;
  u16 prev_id = 0;
  u16 prev_total = 0;
  for (u64 i = 0; i < count; ++i) {
    const u64 off = i * gso_size;
    const u64 len = std::min<u64>(gso_size, payload_len - off);
    const u16 seg_ip_total =
        static_cast<u16>(Ipv4Header::kSize + UdpHeader::kSize + len);
    const u64 frame_len =
        std::max<u64>(kIpOff + seg_ip_total,
                      EthernetHeader::kSize + kMinEthernetPayload);
    Bytes frame(frame_len, 0);
    ByteSpan s{frame};
    std::copy_n(superframe.begin(), kHeadersLen, frame.begin());
    std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(off), len,
                frame.begin() + kHeadersLen);

    store_be16(s, kIpTotalLen, seg_ip_total);
    const u16 id = static_cast<u16>(base_id + i);
    store_be16(s, kIpId, id);
    u16 ip_csum;
    if (i == 0) {
      // One full header sum for the first segment; every later segment
      // is an incremental fixup of the two words that changed.
      store_be16(s, kIpCsum, 0);
      ip_csum = internet_checksum(
          ConstByteSpan{s}.subspan(kIpOff, Ipv4Header::kSize));
    } else {
      ip_csum = checksum_update_u16(prev_csum, prev_id, id);
      if (seg_ip_total != prev_total) {
        ip_csum = checksum_update_u16(ip_csum, prev_total, seg_ip_total);
      }
    }
    store_be16(s, kIpCsum, ip_csum);
    prev_csum = ip_csum;
    prev_id = id;
    prev_total = seg_ip_total;

    const u16 udp_len = static_cast<u16>(UdpHeader::kSize + len);
    store_be16(s, kUdpLen, udp_len);
    store_be16(s, kUdpCsum, 0);
    if (fill_checksums) {
      finalize_udp_checksum(s.subspan(kUdpOff, udp_len), Ipv4Addr{src},
                            Ipv4Addr{dst});
    }
    segments.push_back(std::move(frame));
  }
  return segments;
}

std::optional<GroResult> gro_coalesce_udp(const std::vector<Bytes>& frames) {
  if (frames.empty()) {
    return std::nullopt;
  }
  const ConstByteSpan first{frames.front()};
  if (!is_simple_udp_frame(first)) {
    return std::nullopt;
  }
  const u32 src = load_be32(first, kIpSrc);
  const u32 dst = load_be32(first, kIpDst);
  const u32 ports = load_be32(first, kUdpOff);  // src+dst port pair
  const u16 base_id = load_be16(first, kIpId);

  u64 total_payload = 0;
  u16 gso_size = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ConstByteSpan frame{frames[i]};
    if (!is_simple_udp_frame(frame) || load_be32(frame, kIpSrc) != src ||
        load_be32(frame, kIpDst) != dst ||
        load_be32(frame, kUdpOff) != ports ||
        load_be16(frame, kIpId) != static_cast<u16>(base_id + i)) {
      return std::nullopt;
    }
    const u16 ip_total = load_be16(frame, kIpTotalLen);
    if (ip_total < Ipv4Header::kSize + UdpHeader::kSize ||
        kIpOff + ip_total > frame.size()) {
      return std::nullopt;
    }
    const u64 seg_payload =
        static_cast<u64>(ip_total) - Ipv4Header::kSize - UdpHeader::kSize;
    // A coherent train: every non-final segment carries the same payload
    // size (the sender's gso_size); the tail may be short.
    if (i == 0) {
      gso_size = static_cast<u16>(seg_payload);
    } else if (i + 1 < frames.size() && seg_payload != gso_size) {
      return std::nullopt;
    }
    // Verify the segment's checksum before vouching for the merge.
    const auto udp = parse_udp_datagram(
        frame.subspan(kUdpOff, static_cast<u64>(ip_total) -
                                   Ipv4Header::kSize),
        Ipv4Addr{src}, Ipv4Addr{dst});
    if (!udp || !udp->checksum_ok) {
      return std::nullopt;
    }
    total_payload += seg_payload;
  }
  const u64 merged_ip_total =
      Ipv4Header::kSize + UdpHeader::kSize + total_payload;
  if (merged_ip_total > 0xffff) {
    return std::nullopt;
  }

  GroResult out;
  out.gso_size = gso_size;
  out.segments = static_cast<u16>(frames.size());
  out.frame.assign(kIpOff + merged_ip_total, 0);
  ByteSpan s{out.frame};
  std::copy_n(first.begin(), kHeadersLen, out.frame.begin());
  store_be16(s, kIpTotalLen, static_cast<u16>(merged_ip_total));
  // Incremental fixup of the first segment's header checksum for the
  // one word that changed (id stays at base_id).
  store_be16(s, kIpCsum,
             checksum_update_u16(load_be16(first, kIpCsum),
                                 load_be16(first, kIpTotalLen),
                                 static_cast<u16>(merged_ip_total)));
  store_be16(s, kUdpLen,
             static_cast<u16>(UdpHeader::kSize + total_payload));
  // The UDP checksum is intentionally left as the first segment's value:
  // it is stale for the merged lengths/payload, exactly like a real GRO
  // skb. The device signals kDataValid instead; consumers must trust it.
  u64 write = kHeadersLen;
  for (const Bytes& f : frames) {
    const ConstByteSpan frame{f};
    const u16 ip_total = load_be16(frame, kIpTotalLen);
    const u64 seg_payload =
        static_cast<u64>(ip_total) - Ipv4Header::kSize - UdpHeader::kSize;
    std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(kHeadersLen),
                seg_payload,
                out.frame.begin() + static_cast<std::ptrdiff_t>(write));
    write += seg_payload;
  }
  return out;
}

}  // namespace vfpga::net
