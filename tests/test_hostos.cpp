// Host-OS model tests: cost model/thread timeline, interrupt controller,
// virtio-net driver binding, netstack send/receive paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "support/net_oracle.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/udp.hpp"

namespace vfpga::hostos {
namespace {

struct ThreadFixture : ::testing::Test {
  sim::Xoshiro256 rng{3};
  sim::NoiseModel quiet{sim::NoiseConfig{.enabled = false}};
  CostModelConfig costs = CostModelConfig::fedora_defaults();
  HostThread thread{rng, costs, quiet};
};

TEST_F(ThreadFixture, ExecAdvancesTimeAndSoftwareAccount) {
  const sim::SimTime before = thread.now();
  thread.exec(costs.syscall_entry);
  EXPECT_GT(thread.now(), before);
  EXPECT_EQ(thread.software_time(), thread.now() - before);
}

TEST_F(ThreadFixture, MmioStallIsNotSoftwareTime) {
  thread.mmio_stall(sim::microseconds(2));
  EXPECT_EQ(thread.software_time(), sim::Duration{});
  EXPECT_EQ(thread.mmio_stall_time(), sim::microseconds(2));
}

TEST_F(ThreadFixture, BlockUntilNeverGoesBackward) {
  thread.exec_fixed(sim::microseconds(10));
  const sim::SimTime now = thread.now();
  EXPECT_EQ(thread.block_until(now + sim::microseconds(-5) + sim::Duration{}),
            now);
  EXPECT_EQ(thread.block_until(now + sim::microseconds(7)),
            now + sim::microseconds(7));
}

TEST_F(ThreadFixture, CopyScalesLinearlyBelowColdThreshold) {
  ASSERT_GE(costs.copy_cold_threshold_bytes, u64{1024});
  thread.copy(256);
  const sim::Duration quarter_kib = thread.software_time();
  thread.reset_accounting();
  thread.copy(1024);
  EXPECT_NEAR(thread.software_time().nanos(), quarter_kib.nanos() * 4, 1.0);
}

TEST_F(ThreadFixture, CopyChargesColdTierBeyondThreshold) {
  // Past the cache-resident threshold every extra byte pays both rates;
  // a 64 KiB copy therefore costs strictly more than 64x a 1 KiB copy.
  thread.copy(1024);
  const sim::Duration one_kib = thread.software_time();
  thread.reset_accounting();
  const u64 bytes = 64 * 1024;
  thread.copy(bytes);
  const double expected =
      costs.copy_ns_per_kib * static_cast<double>(bytes) / 1024.0 +
      costs.copy_cold_extra_ns_per_kib *
          static_cast<double>(bytes - costs.copy_cold_threshold_bytes) /
          1024.0;
  EXPECT_NEAR(thread.software_time().nanos(), expected, 1.0);
  EXPECT_GT(thread.software_time().nanos(), one_kib.nanos() * 64);
}

TEST_F(ThreadFixture, CopyCostTracksConfiguredRate) {
  CostModelConfig doubled = costs;
  doubled.copy_ns_per_kib = costs.copy_ns_per_kib * 2.0;
  doubled.copy_cold_extra_ns_per_kib = costs.copy_cold_extra_ns_per_kib * 2.0;
  HostThread fast{rng, costs, quiet};
  HostThread slow{rng, doubled, quiet};
  for (const u64 bytes : {u64{64}, u64{1024}, u64{16 * 1024}}) {
    fast.reset_accounting();
    slow.reset_accounting();
    fast.copy(bytes);
    slow.copy(bytes);
    EXPECT_NEAR(slow.software_time().nanos(),
                fast.software_time().nanos() * 2.0, 1.0)
        << "bytes=" << bytes;
  }
}

TEST_F(ThreadFixture, ResidencyGrowsMonotonicallyAcrossSegments) {
  // Any mix of segments only ever adds residency, and with noise off
  // software time equals wall-clock time spent executing (no blocked or
  // stalled share leaks in).
  sim::Duration last{};
  const sim::SimTime start = thread.now();
  const sim::JitteredSegment* sequence[] = {
      &costs.syscall_entry, &costs.udp_tx_stack,    &costs.virtio_xmit,
      &costs.irq_entry,     &costs.virtio_rx_napi,  &costs.socket_recv,
      &costs.syscall_exit,
  };
  for (const sim::JitteredSegment* segment : sequence) {
    thread.exec(*segment);
    EXPECT_GT(thread.software_time(), last);
    last = thread.software_time();
  }
  EXPECT_EQ(thread.software_time(), thread.now() - start);
}

TEST_F(ThreadFixture, PollTimeIsSubsetOfSoftwareTime) {
  thread.exec(costs.syscall_entry);
  EXPECT_EQ(thread.poll_time(), sim::Duration{});
  thread.exec_poll(costs.busy_poll_iteration);
  const sim::Duration first_poll = thread.poll_time();
  EXPECT_GT(first_poll, sim::Duration{});
  EXPECT_LT(first_poll, thread.software_time());
  thread.exec_poll(costs.busy_poll_iteration);
  EXPECT_GT(thread.poll_time(), first_poll);
  EXPECT_LE(thread.poll_time(), thread.software_time());
}

TEST_F(ThreadFixture, SpinUntilBurnsResidencyBlockUntilDoesNot) {
  const sim::SimTime target = thread.now() + sim::microseconds(30);
  EXPECT_EQ(thread.spin_until(target), target);  // quiet noise: exact
  EXPECT_EQ(thread.software_time(), sim::microseconds(30));
  EXPECT_EQ(thread.poll_time(), sim::microseconds(30));

  const sim::SimTime wake = thread.now() + sim::microseconds(30);
  EXPECT_EQ(thread.block_until(wake), wake);
  EXPECT_EQ(thread.software_time(), sim::microseconds(30));  // unchanged
}

TEST_F(ThreadFixture, SpinUntilInPastIsFree) {
  thread.exec_fixed(sim::microseconds(5));
  const sim::SimTime now = thread.now();
  const sim::Duration software = thread.software_time();
  EXPECT_EQ(thread.spin_until(now + sim::microseconds(-3)), now);
  EXPECT_EQ(thread.software_time(), software);
  EXPECT_EQ(thread.poll_time(), sim::Duration{});
}

TEST_F(ThreadFixture, ResetAccountingKeepsClock) {
  thread.exec_fixed(sim::microseconds(5));
  const sim::SimTime now = thread.now();
  thread.reset_accounting();
  EXPECT_EQ(thread.now(), now);
  EXPECT_EQ(thread.software_time(), sim::Duration{});
}

TEST(InterruptController, VectorsQueueInArrivalOrder) {
  InterruptController irq;
  const u32 a = irq.allocate_vector();
  const u32 b = irq.allocate_vector();
  EXPECT_NE(a, b);
  irq.deliver(a, sim::SimTime{100});
  irq.deliver(a, sim::SimTime{200});
  irq.deliver(b, sim::SimTime{150});
  EXPECT_TRUE(irq.pending(a));
  EXPECT_EQ(irq.consume(a), sim::SimTime{100});
  EXPECT_EQ(irq.consume(a), sim::SimTime{200});
  EXPECT_FALSE(irq.pending(a));
  EXPECT_TRUE(irq.pending(b));
  EXPECT_EQ(irq.delivered_count(), 3u);
}

TEST(InterruptController, NextPendingPeeksWithoutConsuming) {
  InterruptController irq;
  const u32 v = irq.allocate_vector();
  EXPECT_FALSE(irq.next_pending(v).has_value());
  irq.deliver(v, sim::SimTime{100});
  irq.deliver(v, sim::SimTime{200});
  ASSERT_TRUE(irq.next_pending(v).has_value());
  EXPECT_EQ(*irq.next_pending(v), sim::SimTime{100});
  EXPECT_EQ(irq.consume(v), sim::SimTime{100});
  EXPECT_EQ(*irq.next_pending(v), sim::SimTime{200});
}

// ---- virtio-net driver + netstack against the real controller ---------------------

struct StackFixture : ::testing::Test {
  core::TestbedOptions options;
  void SetUp() override {
    options.noise.enabled = false;  // deterministic timing for asserts
  }
};

TEST_F(StackFixture, DriverRejectsWrongDeviceId) {
  core::VirtioNetTestbed bed{options};
  VirtioNetDriver other;
  pcie::EnumeratedDevice wrong;
  wrong.vendor_id = 0x1af4;
  wrong.device_id = 0x1042;  // block, not net
  wrong.revision = 1;
  VirtioNetDriver::BindContext ctx;
  ctx.rc = &bed.root_complex();
  ctx.device = &bed.device();
  ctx.enumerated = &wrong;
  ctx.irq = &bed.irq();
  EXPECT_FALSE(other.probe(ctx, bed.thread()));
}

TEST_F(StackFixture, SendtoUnroutableFailsCleanly) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(32, 1);
  EXPECT_FALSE(bed.socket().sendto(bed.thread(),
                                   net::Ipv4Addr::from_octets(8, 8, 8, 8),
                                   53, payload));
}

// EMSGSIZE: a datagram one byte past what a 1500-byte MTU frame holds
// is refused before the driver sees it; the largest that fits echoes.
TEST_F(StackFixture, SendtoPastTheMtuFailsWithoutTouchingTheRing) {
  core::VirtioNetTestbed bed{options};
  ASSERT_EQ(bed.driver().mtu(), 1500);
  const u64 largest = 1500 - net::Ipv4Header::kSize - net::UdpHeader::kSize;
  const Bytes oversized(largest + 1, 0x3c);
  EXPECT_FALSE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                   bed.options().fpga_udp_port, oversized));
  EXPECT_EQ(bed.stack().tx_oversized(), 1u);
  EXPECT_EQ(bed.driver().tx_packets(), 0u);
  EXPECT_EQ(bed.driver().tx_kicks(), 0u);
  EXPECT_EQ(bed.net_logic().udp_echoes(), 0u);

  const Bytes fits(largest, 0x3c);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, fits));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, fits);
  EXPECT_EQ(bed.driver().tx_packets(), 1u);
  EXPECT_EQ(bed.stack().tx_oversized(), 1u);
}

TEST_F(StackFixture, ReceiveWithoutTrafficTimesOut) {
  core::VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.socket().recvfrom(bed.thread()).has_value());
}

TEST_F(StackFixture, EchoCarriesExactDatagramMetadata) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload{'p', 'i', 'n', 'g'};
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_EQ(reply->src, bed.fpga_ip());
  EXPECT_EQ(reply->src_port, bed.options().fpga_udp_port);
  EXPECT_EQ(reply->dst_port, bed.options().udp_port);
}

TEST_F(StackFixture, ChecksumOffloadNegotiatedAndExercised) {
  core::VirtioNetTestbed bed{options};
  ASSERT_TRUE(
      bed.driver().negotiated().has(virtio::feature::net::kCsum));
  const Bytes payload(100, 7);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  // The device completed the checksum the stack left blank.
  EXPECT_EQ(bed.net_logic().checksums_offloaded(), 1u);
}

TEST_F(StackFixture, OffloadDisabledFallsBackToFullChecksums) {
  options.net.offer_csum = false;
  core::VirtioNetTestbed bed{options};
  EXPECT_FALSE(bed.driver().negotiated().has(virtio::feature::net::kCsum));
  const Bytes payload(100, 7);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_EQ(bed.net_logic().checksums_offloaded(), 0u);
}

TEST_F(StackFixture, SentFrameMatchesBuilderChain) {
  // The TX bounce buffer holds virtio_net_hdr + frame contiguously; find
  // exactly the bytes the per-layer builder chain produced for each send.
  for (const bool offload : {false, true}) {
    options.net.offer_csum = offload;
    core::VirtioNetTestbed bed{options};
    u16 ip_id = 1;  // the stack's first IP id; nothing else is sent
    for (const u64 len : {0u, 1u, 17u, 18u, 64u, 1024u, 1472u}) {
      Bytes payload(len);
      for (u64 i = 0; i < len; ++i) {
        payload[i] = static_cast<u8>(i * 31 + len);
      }
      ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                      bed.options().fpga_udp_port, payload));
      ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());

      net::UdpFrameHeader h;
      h.eth.dst = core::NetDeviceLogic::kFpgaMac;
      h.eth.src = bed.driver().mac();
      h.ip.src = KernelNetstack::kHostIp;
      h.ip.dst = bed.fpga_ip();
      h.ip.identification = ip_id++;
      h.udp = net::UdpHeader{bed.options().udp_port,
                             bed.options().fpga_udp_port};
      const Bytes frame = net_oracle::build_udp_frame(h, payload, offload);
      Bytes expected(virtio::net::NetHeader::kSize);
      virtio::net::NetHeader hdr;
      if (offload) {
        hdr.flags = virtio::net::NetHeader::kNeedsCsum;
        hdr.csum_start = net::EthernetHeader::kSize + net::Ipv4Header::kSize;
        hdr.csum_offset = 6;
      }
      hdr.encode(expected);
      expected.insert(expected.end(), frame.begin(), frame.end());

      const mem::HostMemory& memory = bed.memory();
      const HostAddr base =
          memory.allocator_cursor() - memory.allocated_bytes();
      const Bytes image = memory.read_bytes(base, memory.allocated_bytes());
      EXPECT_NE(std::search(image.begin(), image.end(), expected.begin(),
                            expected.end()),
                image.end())
          << "payload " << len << " offload " << offload;
    }
  }
}

TEST_F(StackFixture, TxInterruptsStaySuppressed) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(64, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  }
  // EVENT_IDX suppressed every TX-completion interrupt.
  EXPECT_FALSE(bed.irq().pending(bed.driver().tx_vector()));
  EXPECT_GE(bed.device().interrupts_suppressed(), 50u);
}

TEST_F(StackFixture, EveryKickIsASingleDoorbell) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(64, 1);
  const u64 kicks_before = bed.driver().tx_kicks();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    ASSERT_TRUE(bed.socket().recvfrom(bed.thread()).has_value());
  }
  EXPECT_EQ(bed.driver().tx_kicks() - kicks_before, 10u);
}

// EHOSTUNREACH: the FPGA's /32 is the only route, so even a host on the
// FPGA's own /24 is refused before the driver sees the datagram; the
// next send to the FPGA echoes.
TEST_F(StackFixture, SendtoAnUnroutedHostFailsWithoutTouchingTheRing) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(32, 0x5a);
  EXPECT_FALSE(bed.socket().sendto(bed.thread(),
                                   net::Ipv4Addr::from_octets(10, 42, 0, 77),
                                   bed.options().fpga_udp_port, payload));
  EXPECT_EQ(bed.driver().tx_packets(), 0u);
  EXPECT_EQ(bed.driver().tx_kicks(), 0u);
  EXPECT_EQ(bed.stack().tx_oversized(), 0u);
  EXPECT_EQ(bed.net_logic().udp_echoes(), 0u);

  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_EQ(bed.driver().tx_packets(), 1u);
}

TEST_F(StackFixture, NonBlockingReceiveDrainsDelivered) {
  core::VirtioNetTestbed bed{options};
  const Bytes payload(48, 9);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  const auto reply = bed.socket().recvfrom_nonblock(bed.thread());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);
  EXPECT_FALSE(bed.socket().recvfrom_nonblock(bed.thread()).has_value());
}

}  // namespace
}  // namespace vfpga::hostos
