// Segmentation & checksum offload datapath: GSO/GRO frame surgery, the
// RFC 1624 incremental checksum helpers, and the end-to-end HOST_UFO /
// GUEST_UFO round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "support/net_oracle.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/gso.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga {
namespace {

using core::TestbedOptions;
using core::VirtioNetTestbed;
namespace feature = virtio::feature;

constexpr net::Ipv4Addr kSrcIp{0x0a000001};  // 10.0.0.1
constexpr net::Ipv4Addr kDstIp{0x0a000002};  // 10.0.0.2
constexpr u64 kIpOff = net::EthernetHeader::kSize;
constexpr u64 kUdpOff = kIpOff + net::Ipv4Header::kSize;
constexpr u64 kHeadersLen = kUdpOff + net::UdpHeader::kSize;

Bytes make_payload(u64 size) {
  Bytes payload(size);
  for (u64 i = 0; i < size; ++i) {
    payload[i] = static_cast<u8>(i * 131 + 17);
  }
  return payload;
}

// One eth+IPv4+UDP superframe the way the netstack lays frames out.
Bytes build_superframe(ConstByteSpan payload, u16 ip_id = 0x100) {
  net::UdpHeader udp;
  udp.src_port = 4791;
  udp.dst_port = 9000;
  const Bytes datagram = net_oracle::build_udp_datagram(udp, kSrcIp, kDstIp,
                                                        payload);
  net::Ipv4Header ip;
  ip.src = kSrcIp;
  ip.dst = kDstIp;
  ip.identification = ip_id;
  const Bytes packet = net::build_ipv4_packet(ip, datagram);
  return net::build_ethernet_frame(net::EthernetHeader{}, packet);
}

// Payload bytes of one segment frame (after the fixed 42-byte headers).
ConstByteSpan segment_payload(const Bytes& frame) {
  const ConstByteSpan s{frame};
  const u16 ip_total = load_be16(s, kIpOff + 2);
  return s.subspan(kHeadersLen, static_cast<u64>(ip_total) -
                                    net::Ipv4Header::kSize -
                                    net::UdpHeader::kSize);
}

// ---- GSO: superframe -> wire-frame train --------------------------------

TEST(GsoSegmentation, ProducesIndependentValidDatagrams) {
  const Bytes payload = make_payload(3000);
  const Bytes super = build_superframe(payload, 0x2a00);
  const std::vector<Bytes> segments =
      net::gso_segment_udp(super, /*gso_size=*/1472);
  ASSERT_EQ(segments.size(), 3u);

  u64 reassembled = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto eth = net::parse_ethernet_frame(segments[i]);
    ASSERT_TRUE(eth.has_value());
    const auto ip = net::parse_ipv4_packet(
        ConstByteSpan{segments[i]}.subspan(kIpOff));
    ASSERT_TRUE(ip.has_value());
    EXPECT_TRUE(ip->checksum_ok) << "segment " << i;
    // L4 (USO) semantics: per-segment identification increments, every
    // output is a complete datagram with its own verified checksum.
    EXPECT_EQ(ip->header.identification, 0x2a00 + i);
    const auto udp = net::parse_udp_datagram(
        ConstByteSpan{segments[i]}.subspan(kUdpOff, ip->payload_length),
        kSrcIp, kDstIp);
    ASSERT_TRUE(udp.has_value());
    EXPECT_TRUE(udp->checksum_ok) << "segment " << i;
    const ConstByteSpan seg = segment_payload(segments[i]);
    EXPECT_EQ(seg.size(), i + 1 < segments.size() ? 1472u : 56u);
    EXPECT_TRUE(std::equal(
        seg.begin(), seg.end(),
        payload.begin() + static_cast<std::ptrdiff_t>(reassembled)));
    reassembled += seg.size();
  }
  EXPECT_EQ(reassembled, payload.size());
}

TEST(GsoSegmentation, OddLengthPayloadsChecksumCorrectly) {
  // Odd segment sizes exercise the accumulator's dangling-byte path in
  // both the per-segment UDP sums and the final short tail.
  const Bytes payload = make_payload(2945);
  const Bytes super = build_superframe(payload);
  const std::vector<Bytes> segments =
      net::gso_segment_udp(super, /*gso_size=*/999);
  ASSERT_EQ(segments.size(), 3u);
  for (const Bytes& frame : segments) {
    const auto ip =
        net::parse_ipv4_packet(ConstByteSpan{frame}.subspan(kIpOff));
    ASSERT_TRUE(ip.has_value());
    const auto udp = net::parse_udp_datagram(
        ConstByteSpan{frame}.subspan(kUdpOff, ip->payload_length), kSrcIp,
        kDstIp);
    ASSERT_TRUE(udp.has_value());
    EXPECT_TRUE(udp->checksum_ok);
  }
  EXPECT_EQ(segment_payload(segments.back()).size(), 2945u - 2 * 999);
}

TEST(GsoSegmentation, IncrementalIpChecksumMatchesFullRecompute) {
  const Bytes super = build_superframe(make_payload(10000), 0xfffe);
  // The id sweep wraps 0xfffe -> 0xffff -> 0x0000: the RFC 1624 fixup
  // must agree with a from-scratch header sum even across the wrap.
  const std::vector<Bytes> segments = net::gso_segment_udp(super, 1472);
  ASSERT_GT(segments.size(), 2u);
  for (const Bytes& frame : segments) {
    Bytes header(frame.begin() + kIpOff,
                 frame.begin() + kIpOff + net::Ipv4Header::kSize);
    const u16 stored = load_be16(ConstByteSpan{header}, 10);
    store_be16(ByteSpan{header}, 10, 0);
    EXPECT_EQ(stored, net::internet_checksum(ConstByteSpan{header}));
  }
}

TEST(GsoSegmentation, RejectsNonUdpAndZeroGsoSize) {
  const Bytes super = build_superframe(make_payload(3000));
  EXPECT_TRUE(net::gso_segment_udp(super, 0).empty());
  Bytes not_ipv4 = super;
  store_be16(ByteSpan{not_ipv4}, 12, 0x0806);  // ARP
  EXPECT_TRUE(net::gso_segment_udp(not_ipv4, 1472).empty());
  EXPECT_TRUE(net::gso_segment_udp(ConstByteSpan{}, 1472).empty());
}

TEST(GsoSegmentation, SubGsoPayloadYieldsSingleSegment) {
  const Bytes payload = make_payload(100);
  const std::vector<Bytes> segments =
      net::gso_segment_udp(build_superframe(payload), 1472);
  ASSERT_EQ(segments.size(), 1u);
  const ConstByteSpan seg = segment_payload(segments[0]);
  EXPECT_TRUE(std::equal(seg.begin(), seg.end(), payload.begin()));
}

// ---- GRO: wire-frame train -> superframe --------------------------------

TEST(GroCoalescing, MergesTrainBackIntoSuperframe) {
  const Bytes payload = make_payload(5000);
  const Bytes super = build_superframe(payload, 0x7000);
  const std::vector<Bytes> segments = net::gso_segment_udp(super, 1472);
  ASSERT_EQ(segments.size(), 4u);

  const auto merged = net::gro_coalesce_udp(segments);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->segments, 4);
  EXPECT_EQ(merged->gso_size, 1472);
  const ConstByteSpan out = segment_payload(merged->frame);
  ASSERT_EQ(out.size(), payload.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), payload.begin()));

  // The merged IP header is coherent (lengths + checksum fixed up)...
  const auto ip = net::parse_ipv4_packet(
      ConstByteSpan{merged->frame}.subspan(kIpOff));
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->checksum_ok);
  EXPECT_EQ(ip->header.identification, 0x7000);
  // ...but the UDP checksum is intentionally STALE (the first
  // segment's), exactly like a real GRO skb: the device vouches for the
  // payload via DATA_VALID instead.
  const auto udp = net::parse_udp_datagram(
      ConstByteSpan{merged->frame}.subspan(kUdpOff, ip->payload_length),
      kSrcIp, kDstIp);
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->payload_length, payload.size());
  EXPECT_FALSE(udp->checksum_ok);
}

TEST(GroCoalescing, AcceptsZeroChecksumSegments) {
  // RFC 768: a zero UDP checksum means "not used" and must not fail
  // verification — a train the segmenter left unchecksummed coalesces.
  const std::vector<Bytes> segments = net::gso_segment_udp(
      build_superframe(make_payload(4000)), 1472, /*fill_checksums=*/false);
  ASSERT_EQ(segments.size(), 3u);
  for (const Bytes& frame : segments) {
    EXPECT_EQ(load_be16(ConstByteSpan{frame}, kUdpOff + 6), 0);
  }
  EXPECT_TRUE(net::gro_coalesce_udp(segments).has_value());
}

TEST(GroCoalescing, RejectsIncoherentTrains) {
  const std::vector<Bytes> segments =
      net::gso_segment_udp(build_superframe(make_payload(5000)), 1472);
  ASSERT_EQ(segments.size(), 4u);

  // Out-of-order ids are not a train.
  std::vector<Bytes> reordered = segments;
  std::swap(reordered[1], reordered[2]);
  EXPECT_FALSE(net::gro_coalesce_udp(reordered).has_value());

  // A corrupted segment fails its checksum audit before merging.
  std::vector<Bytes> corrupted = segments;
  corrupted[2][kHeadersLen + 5] ^= 0x40;
  EXPECT_FALSE(net::gro_coalesce_udp(corrupted).has_value());

  // A flow mismatch (different dst port, checksum refreshed so only the
  // flow key differs) is rejected.
  std::vector<Bytes> mixed = segments;
  store_be16(ByteSpan{mixed[1]}, kUdpOff + 2, 9001);
  const u16 ip_total = load_be16(ConstByteSpan{mixed[1]}, kIpOff + 2);
  net::finalize_udp_checksum(
      ByteSpan{mixed[1]}.subspan(kUdpOff, static_cast<u64>(ip_total) -
                                              net::Ipv4Header::kSize),
      kSrcIp, kDstIp);
  EXPECT_FALSE(net::gro_coalesce_udp(mixed).has_value());

  EXPECT_FALSE(net::gro_coalesce_udp({}).has_value());
}

// ---- checksum primitives -------------------------------------------------

TEST(ChecksumEdgeCases, AccumulatorCarriesDanglingOddByte) {
  const Bytes data = make_payload(1001);
  const u16 whole = net::internet_checksum(ConstByteSpan{data});
  // Odd-length chunks force the accumulator to pair a dangling byte
  // with the first byte of the next add().
  for (const u64 split : {1ull, 497ull, 1000ull}) {
    net::ChecksumAccumulator acc;
    acc.add(ConstByteSpan{data}.subspan(0, split));
    acc.add(ConstByteSpan{data}.subspan(split));
    EXPECT_EQ(acc.fold(), whole) << "split at " << split;
  }
}

TEST(ChecksumEdgeCases, IncrementalUpdateMatchesRecompute) {
  Bytes block = make_payload(40);
  const u16 before = net::internet_checksum(ConstByteSpan{block});

  const u16 old16 = load_be16(ConstByteSpan{block}, 4);
  store_be16(ByteSpan{block}, 4, 0xbeef);
  EXPECT_EQ(net::checksum_update_u16(before, old16, 0xbeef),
            net::internet_checksum(ConstByteSpan{block}));

  const u16 after16 = net::internet_checksum(ConstByteSpan{block});
  const u32 old32 = load_be32(ConstByteSpan{block}, 12);
  store_be32(ByteSpan{block}, 12, 0xdeadc0de);
  EXPECT_EQ(net::checksum_update_u32(after16, old32, 0xdeadc0de),
            net::internet_checksum(ConstByteSpan{block}));
}

TEST(ChecksumEdgeCases, ZeroUdpChecksumTransmitsAsAllOnes) {
  // Find a payload whose checksum folds to zero: RFC 768 requires the
  // sender substitute 0xffff (zero on the wire means "no checksum"),
  // and the receiver must accept the substituted value.
  net::UdpFrameHeader header;
  header.ip.src = kSrcIp;
  header.ip.dst = kDstIp;
  header.udp.src_port = 4791;
  header.udp.dst_port = 9000;
  Bytes payload(2, 0);
  Bytes frame(net::udp_frame_size(payload.size()));
  const ConstByteSpan datagram =
      ConstByteSpan{frame}.subspan(kUdpOff, net::UdpHeader::kSize + 2);
  bool found = false;
  for (u32 w = 0; w < 0x10000 && !found; ++w) {
    store_be16(ByteSpan{payload}, 0, static_cast<u16>(w));
    net::write_udp_frame(frame, header, payload, std::nullopt);
    if (load_be16(datagram, 6) == 0xffff) {
      found = true;
      const auto parsed =
          net::parse_udp_datagram(datagram, kSrcIp, kDstIp);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_TRUE(parsed->checksum_ok);
    }
  }
  EXPECT_TRUE(found);
}

// ---- end-to-end offload datapath ----------------------------------------

TEST(OffloadDatapath, SuperframeRoundTripOnBothRings) {
  for (const bool packed : {false, true}) {
    TestbedOptions options;
    options.seed = 0x0ff1 + (packed ? 1 : 0);
    options.use_packed_rings = packed;
    options.net.mtu = 1500;
    options.datapath.tx_path =
        hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
    options.datapath.want_offload = true;
    VirtioNetTestbed bed{options};

    EXPECT_TRUE(bed.driver().tso_active());
    const virtio::FeatureSet negotiated =
        bed.device().negotiated_features();
    EXPECT_TRUE(negotiated.has(feature::net::kHostUfo));
    EXPECT_TRUE(negotiated.has(feature::net::kGuestUfo));
    EXPECT_TRUE(negotiated.has(feature::net::kCsum));
    EXPECT_TRUE(negotiated.has(feature::net::kGuestCsum));

    // 8000 bytes over a 1500 MTU: one superframe down, a 6-segment wire
    // train through the echo logic, one GRO superframe back up.
    const Bytes payload = make_payload(8000);
    EXPECT_TRUE(bed.udp_round_trip(payload).ok);

    EXPECT_EQ(bed.stack().tx_superframes(), 1u);
    EXPECT_EQ(bed.stack().sw_gso_segments(), 0u);
    EXPECT_EQ(bed.driver().tx_gso_frames(), 1u);
    EXPECT_EQ(bed.net_logic().gso_superframes(), 1u);
    EXPECT_EQ(bed.net_logic().gso_segments_out(), 6u);
    EXPECT_EQ(bed.net_logic().gro_coalesced(), 1u);
    EXPECT_EQ(bed.driver().rx_gro_frames(), 1u);
    // The GRO superframe's UDP checksum is stale; acceptance relied on
    // the device's DATA_VALID vouching.
    EXPECT_EQ(bed.stack().csum_rescued(), 1u);
  }
}

TEST(OffloadDatapath, GroSuperframeThroughMergeableSpans) {
  TestbedOptions options;
  options.seed = 0x0ff3;
  options.net.mtu = 1500;
  options.datapath.tx_path =
      hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
  options.datapath.want_offload = true;
  options.datapath.want_mrg_rxbuf = true;
  options.datapath.mrg_buffer_bytes = 2048;
  VirtioNetTestbed bed{options};

  EXPECT_TRUE(bed.driver().tso_active());
  EXPECT_TRUE(bed.driver().mergeable_rx_active());
  const Bytes payload = make_payload(8000);
  EXPECT_TRUE(bed.udp_round_trip(payload).ok);
  // The ~8 KB coalesced superframe spans multiple 2 KB mergeable
  // buffers on RX and still reassembles.
  EXPECT_GT(bed.driver().rx_merged_frames(), 0u);
  EXPECT_EQ(bed.driver().rx_gro_frames(), 1u);
  EXPECT_EQ(bed.stack().csum_rescued(), 1u);
}

TEST(OffloadDatapath, SoftwareGsoFallbackWithoutNegotiation) {
  TestbedOptions options;
  options.seed = 0x0ff4;
  options.net.mtu = 1500;
  options.datapath.tx_path =
      hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
  // want_offload left false: the stack must slice over-MTU sends itself
  // and the echoed train returns as independent datagrams.
  VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.driver().tso_active());

  const Bytes payload = make_payload(4000);
  hostos::HostThread& t = bed.thread();
  const std::array<ConstByteSpan, 1> iov = {ConstByteSpan{payload}};
  ASSERT_TRUE(bed.socket().sendmsg(t, bed.fpga_ip(),
                                   bed.options().fpga_udp_port,
                                   std::span{iov.data(), iov.size()},
                                   /*more_coming=*/false,
                                   /*zerocopy=*/true));
  Bytes rx(payload.size());
  u64 received = 0;
  for (int d = 0; d < 3; ++d) {
    std::array<ByteSpan, 1> rx_iov = {
        ByteSpan{rx.data() + received, rx.size() - received}};
    const auto msg =
        bed.socket().recvmsg(t, std::span{rx_iov.data(), rx_iov.size()});
    ASSERT_TRUE(msg.has_value());
    received += msg->bytes;
  }
  EXPECT_EQ(received, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), rx.begin()));
  EXPECT_EQ(bed.stack().sw_gso_segments(), 3u);
  EXPECT_EQ(bed.stack().tx_superframes(), 0u);
  EXPECT_EQ(bed.net_logic().gso_superframes(), 0u);
  EXPECT_EQ(bed.net_logic().gro_coalesced(), 0u);
}

}  // namespace
}  // namespace vfpga
