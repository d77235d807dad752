// Device-personality tests: the net echo logic's protocol handling and
// the block device through the controller's same-chain response path —
// §IV-B's claim that device types differ only in queue semantics and the
// device-specific structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "support/mem_read.hpp"
#include "support/net_oracle.hpp"
#include "support/test_driver.hpp"
#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/blk_defs.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::core {
namespace {

using virtio::net::NetHeader;

// ---- NetDeviceLogic in isolation ----------------------------------------------------

struct NetLogicFixture : ::testing::Test {
  NetDeviceLogic logic;
  net::Ipv4Addr host_ip = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  net::MacAddr host_mac{{2, 0, 0, 0, 0, 1}};

  Bytes make_udp_frame(ConstByteSpan payload, bool valid_udp_csum = true) {
    const Bytes udp = net_oracle::build_udp_datagram(
        net::UdpHeader{4791, 9000}, host_ip, NetDeviceLogic::kFpgaIp,
        payload);
    Bytes packet = net_oracle::build_ipv4_packet(
        net::Ipv4Header{host_ip, NetDeviceLogic::kFpgaIp,
                        net::IpProtocol::Udp},
        udp);
    if (!valid_udp_csum) {
      packet[net::Ipv4Header::kSize + 6] ^= 0x55;
    }
    return net_oracle::build_ethernet_frame(
        net::EthernetHeader{NetDeviceLogic::kFpgaMac, host_mac,
                            net::EtherType::Ipv4},
        packet);
  }

  /// An Ethernet/IPv4 ARP request (RFC 826) from the host for `target`.
  Bytes arp_request_frame(net::Ipv4Addr target) {
    Bytes body(28, 0);
    store_be16(ByteSpan{body}, 0, 1);       // HTYPE: Ethernet
    store_be16(ByteSpan{body}, 2, 0x0800);  // PTYPE: IPv4
    body[4] = 6;                            // HLEN
    body[5] = 4;                            // PLEN
    store_be16(ByteSpan{body}, 6, 1);       // OPER: request
    std::copy(host_mac.octets.begin(), host_mac.octets.end(),
              body.begin() + 8);
    store_be32(ByteSpan{body}, 14, host_ip.value);
    store_be32(ByteSpan{body}, 24, target.value);
    Bytes frame = net_oracle::build_ethernet_frame(
        net::EthernetHeader{net::kBroadcastMac, host_mac,
                            net::EtherType::Ipv4},
        body);
    store_be16(ByteSpan{frame}, 12, 0x0806);  // EtherType: ARP
    return frame;
  }

  Bytes with_net_header(ConstByteSpan frame, u8 flags = 0) {
    Bytes payload(NetHeader::kSize + frame.size());
    NetHeader hdr;
    hdr.flags = flags;
    hdr.csum_start = net::EthernetHeader::kSize + net::Ipv4Header::kSize;
    hdr.csum_offset = 6;
    hdr.encode(payload);
    std::copy(frame.begin(), frame.end(),
              payload.begin() + NetHeader::kSize);
    return payload;
  }
};

TEST_F(NetLogicFixture, UdpEchoSwapsEndpointsAndRevalidates) {
  const Bytes payload(200, 0x3c);
  const auto response = logic.process(
      virtio::net::kTxQueue, with_net_header(make_udp_frame(payload)), 2048,
      {});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->target_queue, virtio::net::kRxQueue);
  EXPECT_GT(response->processing_cycles, 0u);
  EXPECT_EQ(logic.udp_echoes(), 1u);

  // The response is a fully-valid frame in the reverse direction.
  const auto frame =
      ConstByteSpan{response->payload}.subspan(NetHeader::kSize);
  const auto eth = net::parse_ethernet_frame(frame);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->header.dst, host_mac);
  EXPECT_EQ(eth->header.src, NetDeviceLogic::kFpgaMac);
  const auto ip = net::parse_ipv4_packet(
      frame.subspan(eth->payload_offset, eth->payload_length));
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->checksum_ok);
  EXPECT_EQ(ip->header.src, NetDeviceLogic::kFpgaIp);
  EXPECT_EQ(ip->header.dst, host_ip);
  const auto udp = net::parse_udp_datagram(
      frame.subspan(eth->payload_offset + ip->payload_offset,
                    ip->payload_length),
      ip->header.src, ip->header.dst);
  ASSERT_TRUE(udp.has_value());
  EXPECT_TRUE(udp->checksum_ok);
  EXPECT_EQ(udp->header.src_port, 9000);
  EXPECT_EQ(udp->header.dst_port, 4791);
  EXPECT_EQ(udp->payload_length, payload.size());
}

TEST_F(NetLogicFixture, CorruptUdpChecksumIsDropped) {
  const auto response = logic.process(
      virtio::net::kTxQueue,
      with_net_header(make_udp_frame(Bytes(64, 1), false)), 2048, {});
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(logic.dropped(), 1u);
}

TEST_F(NetLogicFixture, OffloadedChecksumIsCompletedNotDropped) {
  logic.on_driver_ready(virtio::FeatureSet{}
                            .set(virtio::feature::kVersion1)
                            .set(virtio::feature::net::kCsum)
                            .set(virtio::feature::net::kGuestCsum));
  // Blank checksum + NEEDS_CSUM: the device must fill it in.
  Bytes frame = make_udp_frame(Bytes(64, 1));
  store_be16(ByteSpan{frame},
             net::EthernetHeader::kSize + net::Ipv4Header::kSize + 6, 0);
  const auto response =
      logic.process(virtio::net::kTxQueue,
                    with_net_header(frame, NetHeader::kNeedsCsum), 2048, {});
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(logic.checksums_offloaded(), 1u);
  // Response carries DATA_VALID when GUEST_CSUM negotiated.
  EXPECT_EQ(response->payload[0] & NetHeader::kDataValid,
            NetHeader::kDataValid);
}

// ---- echo frames against the builder chain -----------------------------------------

// Fixed layout of the stack's UDP frames.
constexpr u64 kIpOff = net::EthernetHeader::kSize;
constexpr u64 kUdpOff = kIpOff + net::Ipv4Header::kSize;

struct EchoOracleFixture : NetLogicFixture {
  net::UdpFrameHeader request_header(u16 ip_id) {
    net::UdpFrameHeader h;
    h.eth = net::EthernetHeader{NetDeviceLogic::kFpgaMac, host_mac,
                                net::EtherType::Ipv4};
    h.ip.src = host_ip;
    h.ip.dst = NetDeviceLogic::kFpgaIp;
    h.ip.identification = ip_id;
    h.udp = net::UdpHeader{4791, 9000};
    return h;
  }

  // The response the per-layer builders produced for `request`:
  // endpoints swapped, the payload its UDP length covers, a full
  // checksum.
  Bytes chain_echo(ConstByteSpan request, bool data_valid) {
    net::UdpFrameHeader h;
    std::copy_n(request.begin() + 6, 6, h.eth.dst.octets.begin());
    h.eth.src = NetDeviceLogic::kFpgaMac;
    h.ip.src = net::Ipv4Addr{load_be32(request, kIpOff + 16)};
    h.ip.dst = net::Ipv4Addr{load_be32(request, kIpOff + 12)};
    h.ip.identification = load_be16(request, kIpOff + 4);
    h.udp = net::UdpHeader{load_be16(request, kUdpOff + 2),
                           load_be16(request, kUdpOff)};
    const u16 udp_len = load_be16(request, kUdpOff + 4);
    const Bytes frame = net_oracle::build_udp_frame(
        h, request.subspan(kUdpOff + net::UdpHeader::kSize,
                           udp_len - net::UdpHeader::kSize));
    Bytes out(NetHeader::kSize + frame.size());
    NetHeader hdr;
    hdr.num_buffers = 1;
    hdr.flags = data_valid ? NetHeader::kDataValid : u8{0};
    hdr.encode(out);
    std::copy(frame.begin(), frame.end(), out.begin() + NetHeader::kSize);
    return out;
  }

  void negotiate(bool offload) {
    virtio::FeatureSet f;
    f.set(virtio::feature::kVersion1);
    if (offload) {
      f.set(virtio::feature::net::kCsum).set(virtio::feature::net::kGuestCsum);
    }
    logic.on_driver_ready(f);
  }

  std::optional<UserLogic::Response> echo(ConstByteSpan request,
                                          bool offload) {
    return logic.process(
        virtio::net::kTxQueue,
        with_net_header(request, offload ? NetHeader::kNeedsCsum : u8{0}),
        2048, {});
  }

  Bytes payload_bytes(u64 size) {
    Bytes payload(size);
    for (u64 i = 0; i < size; ++i) {
      payload[i] = static_cast<u8>(i * 167 + 13);
    }
    return payload;
  }
};

TEST_F(EchoOracleFixture, EchoMatchesBuilderChainAtEveryPayloadSize) {
  const Bytes data = payload_bytes(1472);
  for (const bool offload : {false, true}) {
    negotiate(offload);
    for (u64 len = 0; len <= data.size(); ++len) {
      const Bytes request = net_oracle::build_udp_frame(
          request_header(static_cast<u16>(len)),
          ConstByteSpan{data}.first(len), /*zero_udp_checksum=*/offload);
      const auto response = echo(request, offload);
      ASSERT_TRUE(response.has_value()) << len;
      ASSERT_EQ(response->payload, chain_echo(request, offload))
          << "payload " << len << " offload " << offload;
      const u64 beats =
          (response->payload.size() - NetHeader::kSize + 7) / 8;
      EXPECT_EQ(response->processing_cycles,
                kNetPipelineTiming.fixed_cycles +
                    beats * kNetPipelineTiming.cycles_per_beat +
                    (offload ? beats : 0));
    }
  }
  EXPECT_EQ(logic.udp_echoes(), 2u * 1473u);
  EXPECT_EQ(logic.checksums_offloaded(), 1473u);
}

TEST_F(EchoOracleFixture, ZeroWireChecksumIsComputedForTheEcho) {
  negotiate(false);
  const Bytes data = payload_bytes(1472);
  for (const u64 len : {0u, 1u, 63u, 64u, 1471u, 1472u}) {
    Bytes request = net_oracle::build_udp_frame(
        request_header(7), ConstByteSpan{data}.first(len));
    store_be16(ByteSpan{request}, kUdpOff + 6, 0);  // "no checksum"
    const auto response = echo(request, false);
    ASSERT_TRUE(response.has_value()) << len;
    EXPECT_EQ(response->payload, chain_echo(request, false)) << len;
  }
}

TEST_F(EchoOracleFixture, MangledUdpLengthEchoesWhatTheLengthCovers) {
  const Bytes data = payload_bytes(300);
  for (const u64 cut : {1u, 2u, 7u, 64u}) {
    // Offloaded: the device completes a checksum over the IP payload,
    // which the echo of the shorter datagram cannot reuse.
    negotiate(true);
    Bytes request = net_oracle::build_udp_frame(request_header(1), data,
                                                /*zero_udp_checksum=*/true);
    store_be16(ByteSpan{request}, kUdpOff + 4,
               static_cast<u16>(net::UdpHeader::kSize + data.size() - cut));
    auto response = echo(request, true);
    ASSERT_TRUE(response.has_value()) << cut;
    EXPECT_EQ(response->payload, chain_echo(request, true)) << cut;

    // Verified: a checksum valid for the shorter datagram, trailing
    // bytes in the IP payload.
    negotiate(false);
    net::Ipv4Header ip = request_header(2).ip;
    ip.protocol = net::IpProtocol::Udp;
    Bytes datagram = net_oracle::build_udp_datagram(
        net::UdpHeader{4791, 9000}, ip.src, ip.dst,
        ConstByteSpan{data}.first(data.size() - cut));
    datagram.insert(datagram.end(), data.end() - static_cast<i64>(cut),
                    data.end());
    request = net_oracle::build_ethernet_frame(
        request_header(2).eth, net_oracle::build_ipv4_packet(ip, datagram));
    response = echo(request, false);
    ASSERT_TRUE(response.has_value()) << cut;
    EXPECT_EQ(response->payload, chain_echo(request, false)) << cut;
  }

  // A UDP length past the IP payload parses in neither mode. With the
  // checksum offloaded the device has already completed it, and counts
  // that, before the parse drops the frame.
  for (const bool offload : {false, true}) {
    negotiate(offload);
    Bytes request = net_oracle::build_udp_frame(request_header(3), data,
                                                offload);
    store_be16(ByteSpan{request}, kUdpOff + 4,
               static_cast<u16>(net::UdpHeader::kSize + data.size() + 2));
    const u64 dropped = logic.dropped();
    const u64 offloaded = logic.checksums_offloaded();
    EXPECT_FALSE(echo(request, offload).has_value());
    EXPECT_EQ(logic.dropped(), dropped + 1);
    EXPECT_EQ(logic.checksums_offloaded(), offloaded + (offload ? 1 : 0));
  }
}

TEST_F(NetLogicFixture, ArpForSomeoneElseIgnored) {
  // The host reaches the device through a static neighbour entry, so
  // the device has no ARP responder: a request for another address and
  // one for its own are both dropped, counted and left unanswered.
  for (const net::Ipv4Addr target :
       {net::Ipv4Addr::from_octets(10, 42, 0, 200),
        NetDeviceLogic::kFpgaIp}) {
    SCOPED_TRACE(target.value);
    const u64 dropped = logic.dropped();
    EXPECT_FALSE(logic
                     .process(virtio::net::kTxQueue,
                              with_net_header(arp_request_frame(target)), 2048,
                              {})
                     .has_value());
    EXPECT_EQ(logic.dropped(), dropped + 1);
  }
}

// The echo personality answers UDP only: a well-formed ICMP echo
// request (ping) to the device's own address takes the non-UDP drop.
TEST_F(NetLogicFixture, IcmpEchoRequestIsDroppedAndCounted) {
  constexpr u8 kIcmpProtocol = 1;
  Bytes icmp(8 + 56, 0x77);
  icmp[0] = 8;  // type: echo request
  icmp[1] = 0;  // code
  store_be16(ByteSpan{icmp}, 2, 0);       // checksum, computed below
  store_be16(ByteSpan{icmp}, 4, 0xabcd);  // identifier
  store_be16(ByteSpan{icmp}, 6, 1);       // sequence
  store_be16(ByteSpan{icmp}, 2, net_oracle::internet_checksum(icmp));
  const Bytes frame = net_oracle::build_ethernet_frame(
      net::EthernetHeader{NetDeviceLogic::kFpgaMac, host_mac,
                          net::EtherType::Ipv4},
      net_oracle::build_ipv4_packet(
          net::Ipv4Header{host_ip, NetDeviceLogic::kFpgaIp,
                          static_cast<net::IpProtocol>(kIcmpProtocol)},
          icmp));
  const u64 dropped = logic.dropped();
  EXPECT_FALSE(logic
                   .process(virtio::net::kTxQueue, with_net_header(frame),
                            2048, {})
                   .has_value());
  EXPECT_EQ(logic.dropped(), dropped + 1);
  EXPECT_EQ(logic.udp_echoes(), 0u);
}

TEST_F(NetLogicFixture, RuntPayloadDropped) {
  EXPECT_FALSE(
      logic.process(virtio::net::kTxQueue, Bytes(4, 0), 2048, {}).has_value());
  EXPECT_EQ(logic.dropped(), 1u);
}

TEST_F(NetLogicFixture, DeviceConfigStructureLayout) {
  using virtio::net::NetConfigLayout;
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(logic.device_config_read(NetConfigLayout::kMacOffset + i),
              NetDeviceLogic::kFpgaMac.octets[i]);
  }
  EXPECT_EQ(logic.device_config_read(NetConfigLayout::kStatusOffset),
            virtio::net::kNetStatusLinkUp);
  const u16 mtu = static_cast<u16>(
      logic.device_config_read(NetConfigLayout::kMtuOffset) |
      logic.device_config_read(NetConfigLayout::kMtuOffset + 1) << 8);
  EXPECT_EQ(mtu, 1500);
}

// ---- NetDeviceLogic end to end, on both ring formats ----------------------------

// The device segments nothing, so a TX virtio_net_hdr that asks for UDP
// segmentation is driver-written input the device never offered to
// accept: the device consumes the TX chain, drops and counts the frame,
// consumes no RX buffer, and the queue pair keeps echoing.
class GsoTxHeader : public ::testing::TestWithParam<bool> {};

TEST_P(GsoTxHeader, IsDroppedAndCounted) {
  TestbedOptions options;
  options.use_packed_rings = GetParam();
  VirtioNetTestbed bed{options};
  hostos::HostThread& thread = bed.thread();
  const Bytes payload(256, 0x5a);

  // A deferred doorbell leaves the posted frame in its TX buffer, where
  // the header is rewritten before the device reads it. The first frame
  // sits in descriptor 0 of either ring format, whose address field
  // comes first.
  bed.driver().set_kick_coalesce(2);
  ASSERT_TRUE(bed.stack().udp_send(thread, TestbedOptions::udp_port,
                                   bed.fpga_ip(), TestbedOptions::fpga_udp_port,
                                   payload, /*more_coming=*/true));
  const HostAddr hdr_addr = testing_support::read_le64(
      bed.memory(),
      testing_support::queue_registers(bed.device(), virtio::net::kTxQueue)
          .rings.desc);
  NetHeader hdr =
      NetHeader::decode(bed.memory().read_bytes(hdr_addr, NetHeader::kSize));
  ASSERT_EQ(hdr.gso_type, NetHeader::kGsoNone);
  ASSERT_EQ(hdr.flags, NetHeader::kNeedsCsum);
  hdr.gso_type = NetHeader::kGsoUdp;
  hdr.gso_size = 128;
  std::array<u8, NetHeader::kSize> raw{};
  hdr.encode(raw);
  bed.memory().write(hdr_addr, raw);
  bed.driver().flush_tx(thread);

  EXPECT_EQ(bed.device().frames_processed(), 1u);
  EXPECT_EQ(bed.net_logic().dropped(), 1u);
  EXPECT_EQ(bed.net_logic().udp_echoes(), 0u);
  EXPECT_EQ(bed.net_logic().checksums_offloaded(), 0u);
  EXPECT_EQ(bed.stack().poll_rx(thread), 0u);
  EXPECT_EQ(bed.driver().rx_packets(), 0u);
  EXPECT_EQ(bed.device().device_errors(), 0u);

  bed.driver().set_kick_coalesce(1);
  EXPECT_TRUE(bed.udp_round_trip(payload).ok);
  EXPECT_EQ(bed.net_logic().udp_echoes(), 1u);
  EXPECT_EQ(bed.net_logic().dropped(), 1u);
}

INSTANTIATE_TEST_SUITE_P(RingFormats, GsoTxHeader, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "packed" : "split";
                         });

// ---- BlkDeviceLogic through the controller (same-chain responses) -----------------

struct BlkFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  BlkDeviceLogic blk{BlkDeviceConfig{.capacity_sectors = 64}};
  std::optional<VirtioDeviceFunction> device;
  hostos::InterruptController irq;
  std::optional<testing_support::TestDriver> driver;

  void SetUp() override {
    device.emplace(blk, ControllerConfig{});
    rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    rc.attach(*device);
    device->connect(rc);
    ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u);
    driver.emplace(rc, *device, irq);
    driver->initialize(1);
  }

  /// Submit one request chain; returns the status byte the device wrote.
  u8 submit(virtio::blk::RequestType type, u64 sector, ConstByteSpan out_data,
            Bytes* in_data = nullptr) {
    using virtio::blk::kRequestHeaderBytes;
    const HostAddr hdr_addr = memory.allocate(kRequestHeaderBytes);
    virtio::blk::RequestHeader hdr;
    hdr.type = type;
    hdr.sector = sector;
    std::array<u8, kRequestHeaderBytes> raw{};
    hdr.encode(raw);
    memory.write(hdr_addr, raw);

    std::vector<virtio::ChainBuffer> chain;
    chain.push_back({hdr_addr, kRequestHeaderBytes, false});
    HostAddr data_addr = 0;
    if (!out_data.empty()) {
      data_addr = memory.allocate(out_data.size());
      memory.write(data_addr, out_data);
      chain.push_back({data_addr, static_cast<u32>(out_data.size()), false});
    } else if (in_data != nullptr) {
      data_addr = memory.allocate(in_data->size());
      chain.push_back({data_addr, static_cast<u32>(in_data->size()), true});
    }
    const HostAddr status_addr = memory.allocate(1);
    memory.write_u8(status_addr, 0xaa);  // poison
    chain.push_back({status_addr, 1, true});

    auto& vq = driver->vq(virtio::blk::kRequestQueue);
    EXPECT_TRUE(vq.add_chain(chain, 1).has_value());
    vq.publish();
    driver->notify(virtio::blk::kRequestQueue);

    const auto completion = vq.harvest_used();
    EXPECT_TRUE(completion.has_value());
    if (in_data != nullptr) {
      *in_data = memory.read_bytes(data_addr, in_data->size());
    }
    return memory.read_u8(status_addr);
  }
};

TEST_F(BlkFixture, WriteThenReadRoundTrips) {
  Bytes data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 11);
  }
  EXPECT_EQ(submit(virtio::blk::RequestType::Out, 4, data),
            virtio::blk::kStatusOk);
  EXPECT_EQ(blk.writes(), 1u);

  Bytes readback(1024, 0);
  EXPECT_EQ(submit(virtio::blk::RequestType::In, 4, {}, &readback),
            virtio::blk::kStatusOk);
  EXPECT_EQ(readback, data);
  EXPECT_EQ(blk.reads(), 1u);
}

TEST_F(BlkFixture, OutOfRangeSectorIsIoError) {
  EXPECT_EQ(submit(virtio::blk::RequestType::Out, 64, Bytes(512, 1)),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(blk.errors(), 1u);
}

TEST_F(BlkFixture, FlushSucceeds) {
  EXPECT_EQ(submit(virtio::blk::RequestType::Flush, 0, {}),
            virtio::blk::kStatusOk);
}

TEST_F(BlkFixture, UnsupportedRequestTypeReported) {
  EXPECT_EQ(submit(static_cast<virtio::blk::RequestType>(42), 0, {}),
            virtio::blk::kStatusUnsupported);
}

TEST_F(BlkFixture, RetiredAndUndefinedRequestTypesAreUnsupported) {
  // GET_ID (8) and DISCARD (11) are spec request types the device does
  // not serve; 200 is undefined. Each is refused with UNSUPP in the
  // shape a driver would send it (a writable id buffer, a readable
  // discard range), the device stays healthy, and I/O still
  // round-trips after it.
  Bytes range(16, 0);  // virtio_blk_discard_write_zeroes: sector 4, 1 sector
  store_le64(ByteSpan{range}, 0, 4);
  store_le32(ByteSpan{range}, 8, 1);
  const Bytes data(512, 0x5e);
  for (const u32 type : {8u, 11u, 200u}) {
    SCOPED_TRACE(type);
    const auto request_type = static_cast<virtio::blk::RequestType>(type);
    Bytes id(20, 0);
    EXPECT_EQ(submit(request_type, 0, {}, &id),
              virtio::blk::kStatusUnsupported);
    EXPECT_EQ(submit(request_type, 0, range),
              virtio::blk::kStatusUnsupported);
    EXPECT_EQ(device->device_status() & virtio::status::kDeviceNeedsReset, 0);
    EXPECT_EQ(submit(virtio::blk::RequestType::Out, 4, data),
              virtio::blk::kStatusOk);
    Bytes readback(512, 0);
    EXPECT_EQ(submit(virtio::blk::RequestType::In, 4, {}, &readback),
              virtio::blk::kStatusOk);
    EXPECT_EQ(readback, data);
  }
}

TEST_F(BlkFixture, CapacityVisibleInDeviceConfig) {
  u64 capacity = 0;
  for (u32 i = 0; i < 8; ++i) {
    capacity |= static_cast<u64>(driver->device_cfg8(i)) << (8 * i);
  }
  EXPECT_EQ(capacity, 64u);
}

TEST_F(BlkFixture, InterruptFiresPerCompletion) {
  const u32 vector = driver->queue_vector(virtio::blk::kRequestQueue);
  submit(virtio::blk::RequestType::Flush, 0, {});
  EXPECT_TRUE(irq.pending(vector));
  irq.consume(vector);
  // Re-arm used_event, then a second request interrupts again.
  driver->vq(virtio::blk::kRequestQueue)
      .set_used_event(
          driver->vq(virtio::blk::kRequestQueue).last_used_index());
  submit(virtio::blk::RequestType::Flush, 0, {});
  EXPECT_TRUE(irq.pending(vector));
}

}  // namespace
}  // namespace vfpga::core
