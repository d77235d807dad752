// Multi-queue data plane tests: RSS hashing/steering, control-virtqueue
// negotiation bounds and hostile commands, per-queue MSI-X isolation,
// MSI-X table capacity, the multi-flow load generator, and the
// multi-queue fault classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "support/net_oracle.hpp"
#include "support/test_driver.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/pcie/msix.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga {
namespace {

// ---- RSS / Toeplitz --------------------------------------------------------------

TEST(Rss, MatchesMicrosoftVerificationVector) {
  // MSDN RSS verification suite, IPv4-with-ports case:
  // src 66.9.149.187:2794 -> dst 161.142.100.80:1766 hashes to
  // 0x51ccc178 under the standard key. The source endpoint is
  // numerically lower here, so the symmetric serialization coincides
  // with the spec's (src, dst, sport, dport) order.
  const auto src = net::Ipv4Addr::from_octets(66, 9, 149, 187);
  const auto dst = net::Ipv4Addr::from_octets(161, 142, 100, 80);
  EXPECT_EQ(net::rss_flow_hash(src, 2794, dst, 1766), 0x51ccc178u);
}

TEST(Rss, TablesMatchBitSerialToeplitz) {
  // The per-byte tables against the bit loop they replaced, on seeded
  // random tuples (both endpoint orders), plus the MSDN vector through
  // the bit loop to pin the oracle itself.
  EXPECT_EQ(net_oracle::rss_flow_hash(
                net::Ipv4Addr::from_octets(66, 9, 149, 187), 2794,
                net::Ipv4Addr::from_octets(161, 142, 100, 80), 1766),
            0x51ccc178u);
  sim::Xoshiro256 rng{0x70e9};
  u64 mismatches = 0;
  for (int i = 0; i < 100'000; ++i) {
    const net::Ipv4Addr a{static_cast<u32>(rng())};
    const net::Ipv4Addr b{static_cast<u32>(rng())};
    const auto pa = static_cast<u16>(rng());
    const auto pb = static_cast<u16>(rng());
    mismatches += net::rss_flow_hash(a, pa, b, pb) !=
                  net_oracle::rss_flow_hash(a, pa, b, pb);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rss, SymmetricUnderEndpointSwap) {
  const auto a = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  const auto b = net::Ipv4Addr::from_octets(10, 42, 0, 2);
  for (u16 port = 4000; port < 4032; ++port) {
    EXPECT_EQ(net::rss_flow_hash(a, port, b, 9000),
              net::rss_flow_hash(b, 9000, a, port));
  }
  // And it actually discriminates between flows.
  EXPECT_NE(net::rss_flow_hash(a, 4000, b, 9000),
            net::rss_flow_hash(a, 4001, b, 9000));
}

TEST(Rss, SteerCoversEveryPairAndIsDeterministic) {
  const auto host = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  const auto fpga = net::Ipv4Addr::from_octets(10, 42, 0, 2);
  for (const u16 pairs : {u16{2}, u16{4}, u16{8}}) {
    std::set<u16> seen;
    for (u16 port = 20'000; port < 20'256; ++port) {
      const u32 hash = net::rss_flow_hash(host, port, fpga, 9000);
      const u16 pair = net::steer(hash, pairs);
      ASSERT_LT(pair, pairs);
      EXPECT_EQ(pair, net::steer(hash, pairs));  // stable
      seen.insert(pair);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(pairs));
  }
  EXPECT_EQ(net::steer(0xdeadbeefu, 1), 0);
}

// ---- MSI-X table capacity (fails loudly, never aliases) --------------------------

TEST(MsixCapacityDeathTest, RejectsOversizedAndEmptyTables) {
  EXPECT_DEATH((void)pcie::make_msix_capability_body(2049, 0, 0x2000, 0,
                                                     0x3000),
               "table_size");
  EXPECT_DEATH((void)pcie::make_msix_capability_body(0, 0, 0x2000, 0,
                                                     0x3000),
               "table_size");
}

TEST(MsixCapacity, EncodesFullSizeWithoutMasking) {
  // 2048 entries encodes as N-1 = 2047; the old silent `& 0x7ff` mask
  // would have aliased larger tables instead of rejecting them.
  const Bytes body =
      pcie::make_msix_capability_body(2048, 0, 0x2000, 0, 0x3000);
  EXPECT_EQ(body[0], 0xff);
  EXPECT_EQ(body[1], 0x07);
}

TEST(MsixCapacity, ControllerRejectsVectorBeyondTable) {
  // Device side: programming a queue's MSI-X vector past the table must
  // park the queue on NO_VECTOR, not alias into a phantom entry.
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::NetDeviceConfig cfg;
  cfg.max_queue_pairs = 2;  // 5 queues, 6-entry MSI-X table
  core::NetDeviceLogic logic{cfg};
  core::VirtioDeviceFunction device{logic};
  hostos::InterruptController irq;
  rc.set_irq_sink([&](u32 d, sim::SimTime at) { irq.deliver(d, at); });
  rc.attach(device);
  device.connect(rc);
  ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u);

  testing_support::TestDriver drv{rc, device, irq};
  drv.wr16(virtio::commoncfg::kQueueSelect, 0);
  drv.wr16(virtio::commoncfg::kQueueMsixVector, 999);
  EXPECT_EQ(drv.rd16(virtio::commoncfg::kQueueMsixVector), virtio::kNoVector);
  drv.wr16(virtio::commoncfg::kQueueMsixVector, 3);  // in range sticks
  EXPECT_EQ(drv.rd16(virtio::commoncfg::kQueueMsixVector), 3);
}

// ---- Negotiation and the control virtqueue ---------------------------------------

core::TestbedOptions mq_options(u16 device_pairs, u16 requested) {
  core::TestbedOptions options;
  options.net.max_queue_pairs = device_pairs;
  options.requested_queue_pairs = requested;
  return options;
}

TEST(MultiQueue, NegotiatesRequestedPairs) {
  core::VirtioNetTestbed bed{mq_options(4, 4)};
  EXPECT_EQ(bed.driver().queue_pairs(), 4);
  EXPECT_EQ(bed.driver().max_device_pairs(), 4);
  EXPECT_TRUE(bed.driver().negotiated().has(virtio::feature::net::kMq));
  EXPECT_TRUE(bed.driver().negotiated().has(virtio::feature::net::kCtrlVq));
  EXPECT_EQ(bed.net_logic().active_queue_pairs(), 4);
  EXPECT_GE(bed.net_logic().ctrl_commands(), 1u);  // VQ_PAIRS_SET at probe
}

TEST(MultiQueue, RequestCappedByDeviceMaximum) {
  core::VirtioNetTestbed bed{mq_options(2, 8)};
  EXPECT_EQ(bed.driver().queue_pairs(), 2);
  EXPECT_EQ(bed.driver().max_device_pairs(), 2);
  EXPECT_EQ(bed.net_logic().active_queue_pairs(), 2);
}

TEST(MultiQueue, FallsBackToSinglePairWithoutMq) {
  // Device without MQ: driver asked for 4, negotiation drops to the
  // paper's single-queue configuration.
  core::VirtioNetTestbed bed{mq_options(1, 4)};
  EXPECT_EQ(bed.driver().queue_pairs(), 1);
  EXPECT_FALSE(bed.driver().negotiated().has(virtio::feature::net::kMq));
  EXPECT_EQ(bed.net_logic().queue_count(), 2u);  // no ctrl queue either
  EXPECT_TRUE(bed.udp_round_trip(Bytes(64, 0x5a)).ok);
}

TEST(MultiQueue, SinglePairRequestKeepsLegacyNegotiation) {
  // MQ-capable device, but the driver only wants one pair: it must not
  // offer MQ/CTRL_VQ, leaving the baseline negotiation untouched.
  core::VirtioNetTestbed bed{mq_options(4, 1)};
  EXPECT_EQ(bed.driver().queue_pairs(), 1);
  EXPECT_FALSE(bed.driver().negotiated().has(virtio::feature::net::kMq));
  EXPECT_TRUE(bed.udp_round_trip(Bytes(64, 0x5a)).ok);
}

TEST(MultiQueue, CtrlVqPairsSetEnforcesBounds) {
  core::VirtioNetTestbed bed{mq_options(4, 4)};
  auto& t = bed.thread();
  const u64 rejected_before = bed.net_logic().ctrl_rejected();

  // Out-of-range requests: 0 and max+1 are VIRTIO_NET_ERR, state kept.
  auto ack = bed.driver().set_queue_pairs(t, 0);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, virtio::net::kCtrlErr);
  ack = bed.driver().set_queue_pairs(t, 5);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, virtio::net::kCtrlErr);
  EXPECT_EQ(bed.driver().queue_pairs(), 4);
  EXPECT_EQ(bed.net_logic().active_queue_pairs(), 4);
  EXPECT_EQ(bed.net_logic().ctrl_rejected(), rejected_before + 2);

  // In-range shrink and re-grow are VIRTIO_NET_OK on both sides.
  ack = bed.driver().set_queue_pairs(t, 2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, virtio::net::kCtrlOk);
  EXPECT_EQ(bed.driver().queue_pairs(), 2);
  EXPECT_EQ(bed.net_logic().active_queue_pairs(), 2);
  ack = bed.driver().set_queue_pairs(t, 4);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, virtio::net::kCtrlOk);
  EXPECT_EQ(bed.driver().queue_pairs(), 4);

  // Traffic still flows after the renegotiations.
  EXPECT_TRUE(bed.udp_round_trip(Bytes(128, 0x11)).ok);
}

/// VQ_PAIRS_SET for `pairs`, as a driver writes it on the control queue.
Bytes pairs_set_command(u16 pairs) {
  return {virtio::net::kCtrlClassMq, virtio::net::kCtrlMqVqPairsSet,
          static_cast<u8>(pairs & 0xff), static_cast<u8>(pairs >> 8)};
}

/// The RX queue the device echoes each of 64 UDP flows to (distinct
/// source ports): the observable form of its steering state.
std::vector<u16> echo_queues(core::NetDeviceLogic& logic) {
  const auto host_ip = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  const net::MacAddr host_mac{{2, 0, 0, 0, 0, 1}};
  constexpr net::Ipv4Addr fpga_ip = core::NetDeviceLogic::kFpgaIp;
  std::vector<u16> queues;
  for (u16 port = 40000; port < 40064; ++port) {
    const Bytes udp = net_oracle::build_udp_datagram(
        net::UdpHeader{port, 9000}, host_ip, fpga_ip, Bytes(32, 0x5a));
    const Bytes frame = net_oracle::build_ethernet_frame(
        net::EthernetHeader{core::NetDeviceLogic::kFpgaMac, host_mac,
                            net::EtherType::Ipv4},
        net_oracle::build_ipv4_packet(
            net::Ipv4Header{host_ip, fpga_ip, net::IpProtocol::Udp}, udp));
    Bytes request(virtio::net::NetHeader::kSize, 0);
    request.insert(request.end(), frame.begin(), frame.end());
    const auto echo =
        logic.process(virtio::net::tx_queue_index(0), request, 2048, {});
    queues.push_back(echo.has_value() ? echo->target_queue
                                      : virtio::kNoVector);
  }
  return queues;
}

// Driver-written control commands are untrusted input: on a device
// shared between guests, any bytes can arrive on the control queue. A
// malformed or unknown command is answered VIRTIO_NET_ERR (or dropped
// when the chain has no byte for the ack) and changes neither the
// active pairs nor the flow steering.
TEST(MultiQueue, CtrlQueueRejectsHostileCommands) {
  core::NetDeviceConfig config;
  config.max_queue_pairs = 4;
  core::NetDeviceLogic logic{config};
  logic.on_driver_ready(logic.device_features());
  const u16 ctrl = logic.ctrl_queue();
  const auto enabled = logic.process(ctrl, pairs_set_command(3), 1, {});
  ASSERT_TRUE(enabled.has_value());
  ASSERT_EQ(enabled->payload, Bytes{virtio::net::kCtrlOk});
  const std::vector<u16> steering = echo_queues(logic);
  ASSERT_EQ(std::set<u16>(steering.begin(), steering.end()).size(), 3u);

  struct Hostile {
    const char* what;
    Bytes payload;
    u32 writable_capacity;
  };
  const Hostile commands[] = {
      {"empty", {}, 1},
      {"class byte only", {virtio::net::kCtrlClassMq}, 1},
      {"VQ_PAIRS_SET without its argument",
       {virtio::net::kCtrlClassMq, virtio::net::kCtrlMqVqPairsSet}, 1},
      {"VQ_PAIRS_SET with a 1-byte argument",
       {virtio::net::kCtrlClassMq, virtio::net::kCtrlMqVqPairsSet, 1}, 1},
      {"unknown MQ command", {virtio::net::kCtrlClassMq, 1, 1, 0}, 1},
      // Class 6 is VIRTIO_NET_CTRL_NOTF_COAL, a feature this device does
      // not offer: a well-formed NOTF_COAL_RX_SET is still unknown here.
      {"NOTF_COAL class", {6, 1, 32, 0, 0, 0, 8, 0, 0, 0}, 1},
      {"unknown class", {0xff, 0, 1, 0}, 1},
      {"no writable ack byte", pairs_set_command(1), 0},
  };
  for (const Hostile& command : commands) {
    SCOPED_TRACE(command.what);
    const u64 rejected = logic.ctrl_rejected();
    const u64 dropped = logic.dropped();
    const auto ack =
        logic.process(ctrl, command.payload, command.writable_capacity, {});
    if (command.writable_capacity == 0) {
      EXPECT_FALSE(ack.has_value());
      EXPECT_EQ(logic.dropped(), dropped + 1);
      EXPECT_EQ(logic.ctrl_rejected(), rejected);
    } else {
      ASSERT_TRUE(ack.has_value());
      EXPECT_EQ(ack->payload, Bytes{virtio::net::kCtrlErr});
      EXPECT_EQ(ack->target_queue, ctrl);
      EXPECT_EQ(logic.ctrl_rejected(), rejected + 1);
      EXPECT_EQ(logic.dropped(), dropped);
    }
    EXPECT_EQ(logic.active_queue_pairs(), 3);
    EXPECT_EQ(echo_queues(logic), steering);
  }
}

TEST(MultiQueue, NoCtrlCommandWithoutNegotiatedCtrlVq) {
  core::VirtioNetTestbed bed{mq_options(1, 1)};
  EXPECT_FALSE(bed.driver().set_queue_pairs(bed.thread(), 2).has_value());
}

// ---- Per-queue MSI-X isolation ---------------------------------------------------

/// One echo on `sock`, retrying through the all-pairs poll if another
/// flow's interrupt service raced us or the reply was diverted.
bool echo_via(core::VirtioNetTestbed& bed, hostos::UdpSocket& sock,
              ConstByteSpan payload) {
  auto& t = bed.thread();
  if (!sock.sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port, payload)) {
    return false;
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto reply = sock.recvfrom(t);
    if (reply.has_value()) {
      return reply->payload.size() == payload.size() &&
             std::equal(payload.begin(), payload.end(),
                        reply->payload.begin());
    }
    bed.stack().poll_rx(t);
  }
  return false;
}

/// Source port whose flow hash steers to `pair` out of `pairs`.
u16 port_for_pair(const core::VirtioNetTestbed& bed, u16 pairs, u16 pair,
                  u16 from) {
  const auto host = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  for (u16 port = from;; ++port) {
    if (net::steer(net::rss_flow_hash(host, port, bed.fpga_ip(),
                                      bed.options().fpga_udp_port),
                   pairs) == pair) {
      return port;
    }
  }
}

TEST(MultiQueue, DistinctVectorsAndNoCrossQueueDeliveryUnderLoad) {
  constexpr u16 kPairs = 4;
  constexpr u32 kEchoesPerPair = 10;
  core::VirtioNetTestbed bed{mq_options(kPairs, kPairs)};

  // Every negotiated pair has its own RX and TX vector.
  std::set<u32> vectors;
  for (u16 p = 0; p < kPairs; ++p) {
    vectors.insert(bed.driver().rx_vector(p));
    vectors.insert(bed.driver().tx_vector(p));
  }
  EXPECT_EQ(vectors.size(), 2u * kPairs);

  // Load on all four pairs, round-robin.
  std::vector<std::unique_ptr<hostos::UdpSocket>> socks;
  u16 next_port = 21'000;
  for (u16 p = 0; p < kPairs; ++p) {
    const u16 port = port_for_pair(bed, kPairs, p, next_port);
    next_port = static_cast<u16>(port + 1);
    socks.push_back(std::make_unique<hostos::UdpSocket>(bed.stack(), port));
  }
  for (u32 i = 0; i < kEchoesPerPair; ++i) {
    for (u16 p = 0; p < kPairs; ++p) {
      ASSERT_TRUE(echo_via(bed, *socks[p], Bytes(96, static_cast<u8>(i))));
    }
  }

  // Each pair's echoes came back on exactly its own RX vector: one
  // interrupt per echo there, zero anywhere else (TX is suppressed).
  for (u16 p = 0; p < kPairs; ++p) {
    EXPECT_EQ(bed.irq().delivered_on(bed.driver().rx_vector(p)),
              kEchoesPerPair)
        << "rx pair " << p;
    EXPECT_EQ(bed.irq().delivered_on(bed.driver().tx_vector(p)), 0u)
        << "tx pair " << p;
    EXPECT_EQ(bed.net_logic().pair_echoes(p), kEchoesPerPair);
  }
  EXPECT_EQ(bed.stack().steering_mismatches(), 0u);
}

// ---- Multi-flow load generator ---------------------------------------------------

TEST(MultiFlow, CompletesEveryFlowWithoutLossOrDiversion) {
  harness::MultiFlowConfig config;
  config.queue_pairs = 2;
  config.flows = 4;
  config.payload_bytes = 128;
  config.packets_per_flow = 25;
  config.warmup_per_flow = 2;
  config.trials = 2;
  const harness::MultiFlowResult r = harness::run_multi_flow(config);

  EXPECT_EQ(r.queue_pairs, 2);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.cross_pair_rx, 0u);
  ASSERT_EQ(r.per_flow.size(), 4u);
  for (const harness::FlowResult& flow : r.per_flow) {
    EXPECT_EQ(flow.completed, 25u * 2);  // packets x trials
    EXPECT_EQ(flow.pair, flow.flow % 2);
  }
  EXPECT_EQ(r.all_latency_us.count(), 4u * 25 * 2);
  EXPECT_GT(r.aggregate_mpps, 0.0);
  EXPECT_GT(r.all_latency_us.percentile(99), 0.0);
}

// With no warm-up every echo is measured, and residency covers only the
// flows' own time, not the testbed's bring-up.
TEST(MultiFlow, ZeroWarmupMeasuresEveryEcho) {
  harness::MultiFlowConfig config;
  config.queue_pairs = 2;
  config.flows = 2;
  config.payload_bytes = 64;
  config.packets_per_flow = 20;
  config.warmup_per_flow = 0;
  config.trials = 2;
  config.rx_mode = hostos::RxMode::kBusyPoll;
  config.pacing_gap = sim::microseconds(25);
  const harness::MultiFlowResult r = harness::run_multi_flow(config);

  EXPECT_EQ(r.all_latency_us.count(), 2u * 20 * 2);  // flows x packets x trials
  EXPECT_EQ(r.failures, 0u);
  EXPECT_GT(r.cpu_residency, 0.0);
  EXPECT_LE(r.cpu_residency, 1.0);
  EXPECT_GT(r.poll_share, 0.0);
}

// ---- Multi-queue fault classes ---------------------------------------------------

TEST(MultiQueueFaults, SteeringCorruptionRepairedWithoutDeviceReset) {
  core::TestbedOptions options = mq_options(4, 4);
  options.fault.seed = 77;
  options.fault.set_rate(fault::FaultClass::kSteeringCorrupt, 1.0);
  core::VirtioNetTestbed bed{options};

  // Pin the flow to pair 1 so a corrupt steering lookup is observable.
  const u16 port = port_for_pair(bed, 4, 1, 22'000);
  hostos::UdpSocket sock{bed.stack(), port};
  for (u32 i = 0; i < 16; ++i) {
    ASSERT_TRUE(echo_via(bed, sock, Bytes(64, static_cast<u8>(0x40 + i))));
  }
  // Diverted echoes were detected and the netstack repaired the table
  // through the control queue — never through a device reset.
  EXPECT_GT(bed.stack().steering_mismatches(), 0u);
  EXPECT_GT(bed.driver().steering_repairs(), 0u);
  EXPECT_EQ(bed.driver().device_resets(), 0u);

  // Disarm: steering is clean again (transient corruption only).
  bed.fault_plane()->set_armed(false);
  const u64 mismatches = bed.stack().steering_mismatches();
  for (u32 i = 0; i < 8; ++i) {
    ASSERT_TRUE(echo_via(bed, sock, Bytes(64, static_cast<u8>(0x80 + i))));
  }
  EXPECT_EQ(bed.stack().steering_mismatches(), mismatches);
}

TEST(MultiQueueFaults, LostQueueInterruptRecoveredByPolling) {
  core::TestbedOptions options = mq_options(4, 4);
  options.fault.seed = 78;
  options.fault.set_rate(fault::FaultClass::kQueueIrqLost, 1.0);
  core::VirtioNetTestbed bed{options};

  const u16 port = port_for_pair(bed, 4, 2, 23'000);
  hostos::UdpSocket sock{bed.stack(), port};
  for (u32 i = 0; i < 8; ++i) {
    ASSERT_TRUE(echo_via(bed, sock, Bytes(64, static_cast<u8>(i))));
  }
  EXPECT_GT(bed.device().queue_irqs_lost(), 0u);
  EXPECT_EQ(bed.irq().delivered_on(bed.driver().rx_vector(2)), 0u);
  EXPECT_EQ(bed.driver().device_resets(), 0u);  // per-queue recovery only
}

}  // namespace
}  // namespace vfpga
