// End-to-end integration tests: full testbeds exercising enumeration,
// driver binding, and round trips through every layer at once.
#include <gtest/gtest.h>

#include "support/test_driver.hpp"
#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/hostos/virtio_blk_driver.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga {
namespace {

TEST(VirtioTestbed, BindsAndNegotiates) {
  core::VirtioNetTestbed bed;
  EXPECT_TRUE(bed.driver().bound());
  const auto negotiated = bed.driver().negotiated();
  EXPECT_TRUE(negotiated.has(virtio::feature::kVersion1));
  EXPECT_TRUE(negotiated.has(virtio::feature::kRingEventIdx));
  EXPECT_TRUE(negotiated.has(virtio::feature::net::kMac));
  // The driver read the MAC out of the device-specific config structure.
  EXPECT_EQ(bed.driver().mac(), core::NetDeviceLogic::kFpgaMac);
  EXPECT_EQ(bed.driver().mtu(), 1500);
}

TEST(VirtioTestbed, UdpEchoRoundTripWorks) {
  core::VirtioNetTestbed bed;
  Bytes payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i);
  }
  const auto rt = bed.udp_round_trip(payload);
  ASSERT_TRUE(rt.ok);
  EXPECT_GT(rt.total.micros(), 5.0);
  EXPECT_LT(rt.total.micros(), 500.0);
  EXPECT_GT(rt.hardware.micros(), 1.0);
  EXPECT_LT(rt.hardware, rt.total);
  EXPECT_GT(rt.response_gen.picos(), 0);
  EXPECT_EQ(bed.net_logic().udp_echoes(), 1u);
}

TEST(VirtioTestbed, ManyRoundTripsAllSucceed) {
  core::VirtioNetTestbed bed;
  Bytes payload(512, 0xab);
  for (int i = 0; i < 300; ++i) {
    payload[0] = static_cast<u8>(i);
    const auto rt = bed.udp_round_trip(payload);
    ASSERT_TRUE(rt.ok) << "iteration " << i;
  }
  EXPECT_EQ(bed.net_logic().udp_echoes(), 300u);
  // The RX ring is 256 deep: 300 echoes prove buffers recycle.
}

TEST(VirtioTestbed, HardwareCountersQuantizedTo8ns) {
  core::VirtioNetTestbed bed;
  Bytes payload(64, 1);
  const auto rt = bed.udp_round_trip(payload);
  ASSERT_TRUE(rt.ok);
  EXPECT_EQ(rt.hardware.picos() % 8000, 0);
  EXPECT_EQ(rt.response_gen.picos() % 8000, 0);
}

TEST(XdmaTestbed, BindsAndLoopsBack) {
  core::XdmaTestbed bed;
  EXPECT_TRUE(bed.driver().bound());
  const auto rt = bed.write_read_round_trip(1024);
  ASSERT_TRUE(rt.ok);
  EXPECT_GT(rt.total.micros(), 5.0);
  EXPECT_LT(rt.total.micros(), 500.0);
  EXPECT_GT(rt.hardware.micros(), 1.0);
  EXPECT_LT(rt.hardware, rt.total);
}

TEST(XdmaTestbed, ManyRoundTripsAllSucceed) {
  core::XdmaTestbed bed;
  for (int i = 0; i < 300; ++i) {
    const auto rt = bed.write_read_round_trip(64 + (static_cast<u64>(i) % 960));
    ASSERT_TRUE(rt.ok) << "iteration " << i;
  }
  EXPECT_EQ(bed.driver().transfers_completed(), 600u);
}

/// What a testbed holds on to after a run: none of it may grow with the
/// number of round trips.
struct Footprint {
  std::size_t window = 0;      ///< counter-bank capture window
  std::size_t bank_bytes = 0;  ///< counter-bank snapshot size
  u64 resident_bytes = 0;      ///< host memory backed by pages
};

Footprint footprint_of(fpga::PerfCounterBank& bank,
                       const mem::HostMemory& memory) {
  migrate::StateWriter w;
  migrate::StateIo io{w};
  bank.transfer(io);
  return {bank.history().size(), w.buffer().size(), memory.resident_bytes()};
}

Footprint virtio_footprint(int echoes) {
  core::VirtioNetTestbed bed;
  Bytes payload(64, 0x5a);
  for (int i = 0; i < echoes; ++i) {
    payload[0] = static_cast<u8>(i);
    EXPECT_TRUE(bed.udp_round_trip(payload).ok) << "echo " << i;
  }
  return footprint_of(bed.device().counters(), bed.memory());
}

Footprint xdma_footprint(int loop_backs) {
  core::XdmaTestbed bed;
  for (int i = 0; i < loop_backs; ++i) {
    EXPECT_TRUE(bed.write_read_round_trip(64).ok) << "loop-back " << i;
  }
  return footprint_of(bed.device().counters(), bed.memory());
}

TEST(FlatMemory, TenTimesTheTrafficKeepsTheSameFootprint) {
  for (const auto& run : {virtio_footprint, xdma_footprint}) {
    const Footprint small = run(1'000);
    const Footprint large = run(10'000);
    EXPECT_EQ(small.window, large.window);
    EXPECT_EQ(small.bank_bytes, large.bank_bytes);
    EXPECT_EQ(small.resident_bytes, large.resident_bytes);
  }
}

constexpr u64 kBlkPage = mem::HostMemory::kPageSize;
constexpr u64 kSectorsPerPage = kBlkPage / virtio::blk::kSectorBytes;

/// One polled 4 KiB request on queue 0; every fourth one drains the
/// queue.
void polled_request(core::VirtioNetTestbed& bed, u64 block, bool write) {
  hostos::VirtioBlkDriver& drv = bed.blk_driver();
  hostos::HostThread& t = bed.thread();
  const u64 sector = block * kSectorsPerPage;
  const auto slot =
      write ? drv.submit_write(t, 0, sector, Bytes(kBlkPage, 0xa5))
            : drv.submit_read(t, 0, sector, kBlkPage);
  ASSERT_TRUE(slot.has_value());
  if (drv.in_flight(0) < 4) {
    return;
  }
  while (drv.in_flight(0) > 0) {
    ASSERT_TRUE(drv.wait_polled(t, 0));
  }
  while (const auto c = drv.pop_completion(0)) {
    EXPECT_EQ(c->status, virtio::blk::kStatusOk);
  }
}

TEST(FlatMemory, BlkStoreHoldsOnlyWrittenPages) {
  {
    core::TestbedOptions options;
    options.attach_blk = true;
    options.blk.capacity_sectors = 1024 * kSectorsPerPage;  // 4 MiB
    core::VirtioNetTestbed bed{options};
    hostos::HostThread& t = bed.thread();
    hostos::VirtioBlkDriver& drv = bed.blk_driver();
    const core::BlkDeviceLogic& blk = bed.blk_logic();
    EXPECT_EQ(blk.resident_bytes(), 0u);

    const Bytes block(kBlkPage, 0x6b);
    for (const u64 b : {u64{3}, u64{500}, u64{1023}}) {
      ASSERT_TRUE(drv.write_sectors(t, b * kSectorsPerPage, block));
    }
    EXPECT_EQ(blk.resident_bytes(), 3 * kBlkPage);
    Bytes readback(kBlkPage);
    for (u64 b = 600; b < 700; ++b) {
      ASSERT_TRUE(drv.read_sectors(t, b * kSectorsPerPage, readback));
    }
    EXPECT_EQ(readback, Bytes(kBlkPage, 0));
    EXPECT_EQ(blk.resident_bytes(), 3 * kBlkPage);
    // FLUSH copies the 24 dirty sectors: three durable pages.
    ASSERT_TRUE(drv.flush(t));
    EXPECT_EQ(blk.resident_bytes(), 6 * kBlkPage);
  }

  // Once every block of the default 1 MiB store is written, ten times
  // that many polled requests add no page to the store or host memory.
  core::TestbedOptions options;
  options.attach_blk = true;
  core::VirtioNetTestbed bed{options};
  bed.blk_driver().set_polled(0, true);
  const u64 blocks = options.blk.capacity_sectors / kSectorsPerPage;
  for (u64 b = 0; b < blocks; ++b) {
    polled_request(bed, b, true);
  }
  const u64 store = bed.blk_logic().resident_bytes();
  const u64 memory = bed.memory().resident_bytes();
  EXPECT_EQ(store, blocks * kBlkPage);

  sim::Xoshiro256 rng{0xf1a7};
  for (u64 i = 0; i < 10 * blocks; ++i) {
    polled_request(bed, rng.uniform_below(blocks), rng.uniform_below(2) == 0);
  }
  EXPECT_EQ(bed.blk_logic().resident_bytes(), store);
  EXPECT_EQ(bed.memory().resident_bytes(), memory);
}

TEST(Determinism, SameSeedSameLatencies) {
  core::TestbedOptions options;
  options.seed = 777;
  Bytes payload(128, 3);

  std::vector<i64> first;
  {
    core::VirtioNetTestbed bed{options};
    for (int i = 0; i < 20; ++i) {
      first.push_back(bed.udp_round_trip(payload).total.picos());
    }
  }
  core::VirtioNetTestbed bed{options};
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(bed.udp_round_trip(payload).total.picos(), first[i]) << i;
  }
}

TEST(Determinism, DifferentSeedsDifferentLatencies) {
  core::TestbedOptions a;
  a.seed = 1;
  core::TestbedOptions b;
  b.seed = 2;
  core::VirtioNetTestbed bed_a{a};
  core::VirtioNetTestbed bed_b{b};
  Bytes payload(128, 3);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (bed_a.udp_round_trip(payload).total.picos() !=
        bed_b.udp_round_trip(payload).total.picos()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 5);
}

TEST(WireMatching, VirtioWireBytesAccountsForHeadersAndPadding) {
  // 18-byte UDP payload: 18+28=46 L3 bytes = Ethernet minimum exactly.
  EXPECT_EQ(core::virtio_wire_bytes(18), 12u + 14u + 46u);
  // Below the minimum, padding dominates.
  EXPECT_EQ(core::virtio_wire_bytes(1), 12u + 14u + 46u);
  // Above: headers only.
  EXPECT_EQ(core::virtio_wire_bytes(1024), 12u + 14u + 20u + 8u + 1024u);
}

// ---- multi-function bus -------------------------------------------------------------

TEST(MultiDevice, ThreeEndpointsShareOneRootComplex) {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  hostos::InterruptController irq;
  rc.set_irq_sink([&](u32 d, sim::SimTime at) { irq.deliver(d, at); });

  core::NetDeviceLogic net_logic;
  core::VirtioDeviceFunction net_device{net_logic};
  core::BlkDeviceLogic blk_logic{core::BlkDeviceConfig{.capacity_sectors = 64}};
  core::VirtioDeviceFunction blk_device{blk_logic};
  xdma::XdmaIpFunction xdma_device{64 * 1024};

  rc.attach(net_device);
  rc.attach(blk_device);
  rc.attach(xdma_device);
  net_device.connect(rc);
  blk_device.connect(rc);
  xdma_device.connect(rc);

  const auto devices = pcie::enumerate_bus(rc);
  ASSERT_EQ(devices.size(), 3u);

  // BAR windows must be disjoint.
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t j = i + 1; j < devices.size(); ++j) {
      for (const auto& a : devices[i].bars) {
        for (const auto& b : devices[j].bars) {
          const bool disjoint = a.address + a.size <= b.address ||
                                b.address + b.size <= a.address;
          EXPECT_TRUE(disjoint) << i << "/" << j;
        }
      }
    }
  }

  // Bind all three drivers and run traffic on each.
  sim::Xoshiro256 rng{77};
  sim::NoiseModel noise{sim::NoiseConfig{.enabled = false}};
  const auto costs = hostos::CostModelConfig::fedora_defaults();
  hostos::HostThread thread{rng, costs, noise};

  hostos::VirtioNetDriver net_driver;
  {
    hostos::VirtioPciTransport::BindContext ctx;
    ctx.rc = &rc;
    ctx.device = &net_device;
    ctx.enumerated = &devices[0];
    ctx.irq = &irq;
    ASSERT_TRUE(net_driver.probe(ctx, thread));
  }
  hostos::VirtioBlkDriver blk_driver;
  {
    hostos::VirtioPciTransport::BindContext ctx;
    ctx.rc = &rc;
    ctx.device = &blk_device;
    ctx.enumerated = &devices[1];
    ctx.irq = &irq;
    ASSERT_TRUE(blk_driver.probe(ctx, thread));
  }
  xdma::XdmaHostDriver xdma_driver;
  {
    xdma::XdmaHostDriver::BindContext ctx;
    ctx.rc = &rc;
    ctx.device = &xdma_device;
    ctx.enumerated = &devices[2];
    ctx.irq = &irq;
    ASSERT_TRUE(xdma_driver.probe(ctx, thread));
  }

  // Interleaved traffic: block write, net echo, XDMA loop-back, block
  // read — vectors and completions must not cross between devices.
  Bytes sectors(1024, 0x61);
  ASSERT_TRUE(blk_driver.write_sectors(thread, 0, sectors));

  hostos::KernelNetstack stack{net_driver, irq};
  stack.configure_fpga_route(core::NetDeviceLogic::kFpgaIp,
                             core::NetDeviceLogic::kFpgaMac);
  hostos::UdpSocket socket{stack, 5555};
  const Bytes payload(96, 0x7e);
  ASSERT_TRUE(socket.sendto(thread, core::NetDeviceLogic::kFpgaIp, 9000,
                            payload));

  Bytes loopback(512, 0x11);
  ASSERT_TRUE(xdma_driver.h2c_transfer(thread, loopback));
  Bytes loopback_out(512, 0);
  ASSERT_TRUE(xdma_driver.c2h_transfer(thread, loopback_out));
  EXPECT_EQ(loopback_out, loopback);

  const auto reply = socket.recvfrom(thread);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, payload);

  Bytes readback(1024, 0);
  ASSERT_TRUE(blk_driver.read_sectors(thread, 0, readback));
  EXPECT_EQ(readback, sectors);
}

// ---- randomized chain geometry (property) ---------------------------------------------

class ChainGeometryProperty : public ::testing::TestWithParam<u64> {};

TEST_P(ChainGeometryProperty, ConsoleEchoSurvivesArbitraryChains) {
  // Random RX/TX chain shapes through the real controller: any split of
  // a payload across device-readable buffers, any split of RX capacity
  // across device-writable buffers, must echo byte-exactly.
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::ConsoleDeviceLogic console;
  core::VirtioDeviceFunction device{console};
  hostos::InterruptController irq;
  rc.set_irq_sink([&](u32 d, sim::SimTime at) { irq.deliver(d, at); });
  rc.attach(device);
  device.connect(rc);
  ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u);
  testing_support::TestDriver driver{rc, device, irq};
  driver.initialize(2, /*queue_size=*/64);

  sim::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 30; ++trial) {
    const u64 payload_len = rng.uniform_below(500) + 4;
    Bytes payload(payload_len);
    for (auto& b : payload) {
      b = static_cast<u8>(rng());
    }

    // RX chain: 1-4 writable buffers covering >= payload_len in total.
    const u64 rx_parts = rng.uniform_below(4) + 1;
    std::vector<virtio::ChainBuffer> rx_chain;
    std::vector<HostAddr> rx_addrs;
    u64 rx_total = 0;
    for (u64 i = 0; i < rx_parts; ++i) {
      const u64 part = (i + 1 == rx_parts)
                           ? std::max<u64>(payload_len - rx_total, 8)
                           : rng.uniform_below(payload_len) + 8;
      const HostAddr addr = memory.allocate(part);
      rx_addrs.push_back(addr);
      rx_chain.push_back({addr, static_cast<u32>(part), true});
      rx_total += part;
    }
    ASSERT_TRUE(driver.vq(virtio::console::kRxQueue)
                    .add_chain(rx_chain, static_cast<u64>(trial))
                    .has_value());
    driver.vq(virtio::console::kRxQueue).publish();

    // TX chain: payload split across 1-4 readable buffers.
    const u64 tx_parts = std::min<u64>(rng.uniform_below(4) + 1, payload_len);
    std::vector<virtio::ChainBuffer> tx_chain;
    u64 offset = 0;
    for (u64 i = 0; i < tx_parts; ++i) {
      const u64 remaining = payload_len - offset;
      const u64 part = (i + 1 == tx_parts)
                           ? remaining
                           : rng.uniform_below(remaining - (tx_parts - i - 1)) +
                                 1;
      const HostAddr addr = memory.allocate(part);
      memory.write(addr,
                   ConstByteSpan{payload}.subspan(offset, part));
      tx_chain.push_back({addr, static_cast<u32>(part), false});
      offset += part;
    }
    ASSERT_TRUE(driver.vq(virtio::console::kTxQueue)
                    .add_chain(tx_chain, static_cast<u64>(trial))
                    .has_value());
    driver.vq(virtio::console::kTxQueue).publish();
    driver.notify(virtio::console::kTxQueue);

    // Harvest + reassemble the scattered echo.
    const auto rx_completion =
        driver.vq(virtio::console::kRxQueue).harvest_used();
    ASSERT_TRUE(rx_completion.has_value()) << "trial " << trial;
    ASSERT_EQ(rx_completion->written, payload_len);
    Bytes echoed;
    u64 remaining = payload_len;
    for (std::size_t i = 0; i < rx_chain.size() && remaining > 0; ++i) {
      const u64 take = std::min<u64>(remaining, rx_chain[i].len);
      const Bytes part = memory.read_bytes(rx_addrs[i], take);
      echoed.insert(echoed.end(), part.begin(), part.end());
      remaining -= take;
    }
    EXPECT_EQ(echoed, payload) << "trial " << trial;
    ASSERT_TRUE(
        driver.vq(virtio::console::kTxQueue).harvest_used().has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainGeometryProperty,
                         ::testing::Values(u64{3}, u64{17}, u64{2024}));

}  // namespace
}  // namespace vfpga
