// virtio-blk front-end driver tests: the full host stack against the
// block personality — probe, sector I/O, indirect chains, error paths.
#include <gtest/gtest.h>

#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/virtio_blk_driver.hpp"
#include "vfpga/pcie/enumeration.hpp"

namespace vfpga::hostos {
namespace {

struct BlkDriverFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::BlkDeviceLogic blk{core::BlkDeviceConfig{.capacity_sectors = 256}};
  core::ControllerConfig controller_config;
  std::optional<core::VirtioDeviceFunction> device;
  InterruptController irq;
  sim::Xoshiro256 rng{5};
  sim::NoiseModel noise{sim::NoiseConfig{.enabled = false}};
  CostModelConfig costs = CostModelConfig::fedora_defaults();
  std::optional<HostThread> thread;
  VirtioBlkDriver driver;
  std::vector<pcie::EnumeratedDevice> enumerated;

  void bind(bool packed = false) {
    controller_config.policy.offer_packed = packed;
    device.emplace(blk, controller_config);
    rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    rc.attach(*device);
    device->connect(rc);
    enumerated = pcie::enumerate_bus(rc);
    ASSERT_EQ(enumerated.size(), 1u);
    thread.emplace(rng, costs, noise);
    VirtioPciTransport::BindContext ctx;
    ctx.rc = &rc;
    ctx.device = &*device;
    ctx.enumerated = &enumerated.front();
    ctx.irq = &irq;
    ctx.prefer_packed = packed;
    ASSERT_TRUE(driver.probe(ctx, *thread));
  }
};

TEST_F(BlkDriverFixture, ProbeReadsCapacityFromDeviceConfig) {
  bind();
  EXPECT_TRUE(driver.bound());
  EXPECT_EQ(driver.capacity_sectors(), 256u);
  EXPECT_TRUE(driver.negotiated().has(virtio::feature::blk::kFlush));
}

TEST_F(BlkDriverFixture, SectorRoundTrip) {
  bind();
  Bytes data(2048);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7 + 1);
  }
  ASSERT_TRUE(driver.write_sectors(*thread, 10, data));
  Bytes readback(2048, 0);
  ASSERT_TRUE(driver.read_sectors(*thread, 10, readback));
  EXPECT_EQ(readback, data);
  EXPECT_TRUE(driver.flush(*thread));
  EXPECT_EQ(driver.requests_completed(), 3u);
  EXPECT_EQ(blk.writes(), 1u);
  EXPECT_EQ(blk.reads(), 1u);
}

TEST_F(BlkDriverFixture, OutOfRangeIoReturnsFalse) {
  bind();
  Bytes block(512, 1);
  EXPECT_FALSE(driver.write_sectors(*thread, 256, block));
  EXPECT_EQ(blk.errors(), 1u);
  // The driver/queue recover: a valid request still works.
  EXPECT_TRUE(driver.write_sectors(*thread, 0, block));
}

TEST_F(BlkDriverFixture, IndirectChainsWorkAndSaveHardwareTime) {
  bind();
  Bytes data(4096, 0x5c);
  ASSERT_TRUE(driver.write_sectors(*thread, 0, data));

  // The saving is on the device side (descriptor fetches), so compare
  // the FPGA's notify->irq counters — host software jitter would need
  // hundreds of samples to average out.
  const auto hw_interval = [&](bool indirect) {
    driver.set_use_indirect(indirect);
    Bytes out(4096);
    EXPECT_TRUE(driver.read_sectors(*thread, 0, out));
    EXPECT_EQ(out, data);
    return device->counters().interval("notify", "irq_sent");
  };
  const sim::Duration direct_hw = hw_interval(false);
  const sim::Duration indirect_hw = hw_interval(true);

  // A blk request is three descriptors (header/data/status). The FSM's
  // speculative cacheline window fetches the direct chain in two reads
  // (head + window), and the indirect path also takes two (head +
  // table), so the two are a near-tie — the indirect table moves fewer
  // descriptor bytes, so it must never be meaningfully slower. The big
  // indirect win (one table read versus repeated window fetches) only
  // appears on chains longer than the window.
  EXPECT_LT(indirect_hw, direct_hw + sim::nanoseconds(500));
}

TEST_F(BlkDriverFixture, WorksOverPackedRings) {
  bind(/*packed=*/true);
  ASSERT_TRUE(driver.negotiated().has(virtio::feature::kRingPacked));
  Bytes data(1024, 0x17);
  ASSERT_TRUE(driver.write_sectors(*thread, 4, data));
  Bytes readback(1024, 0);
  ASSERT_TRUE(driver.read_sectors(*thread, 4, readback));
  EXPECT_EQ(readback, data);
}

TEST_F(BlkDriverFixture, ManyRequestsRecycleTheRing) {
  bind();
  Bytes block(512);
  for (u64 i = 0; i < 300; ++i) {
    block.assign(512, static_cast<u8>(i));
    ASSERT_TRUE(driver.write_sectors(*thread, i % 250, block)) << i;
  }
  EXPECT_EQ(driver.requests_completed(), 300u);
}

TEST_F(BlkDriverFixture, RejectsNetDevice) {
  // A blk driver must not bind a net personality.
  core::NetDeviceLogic net_logic;
  core::VirtioDeviceFunction net_device{net_logic};
  rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
  rc.attach(net_device);
  net_device.connect(rc);
  auto devices = pcie::enumerate_bus(rc);
  ASSERT_GE(devices.size(), 1u);
  thread.emplace(rng, costs, noise);
  VirtioPciTransport::BindContext ctx;
  ctx.rc = &rc;
  ctx.device = &net_device;
  ctx.enumerated = &devices.front();
  ctx.irq = &irq;
  VirtioBlkDriver other;
  EXPECT_FALSE(other.probe(ctx, *thread));
}

}  // namespace
}  // namespace vfpga::hostos
