// XDMA model tests: descriptor codec, engine data movement (both modes),
// register file behaviour, error paths.
#include <gtest/gtest.h>

#include <array>

#include "support/mem_read.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/xdma/host_driver.hpp"
#include "vfpga/xdma/xdma_ip.hpp"

namespace vfpga::xdma {
namespace {

u8 bram_byte(const mem::Bram& bram, FpgaAddr addr) {
  std::array<u8, 1> byte{};
  bram.read(addr, byte);
  return byte[0];
}

TEST(XdmaDescriptor, EncodeDecodeRoundTrip) {
  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop | descctl::kEop;
  desc.next_adjacent = 3;
  desc.length = 4096;
  desc.src_addr = 0x1'0000'0100ull;
  desc.dst_addr = 0x2000;
  desc.next_addr = 0x1'0000'0200ull;

  std::array<u8, kDescriptorBytes> raw{};
  desc.encode(raw);
  // Magic lands in the top half of the first dword.
  EXPECT_EQ(load_le32(raw, 0) >> 16, kDescriptorMagic);

  XdmaDescriptor decoded;
  ASSERT_TRUE(XdmaDescriptor::decode(raw, decoded));
  EXPECT_EQ(decoded.control_flags, desc.control_flags);
  EXPECT_EQ(decoded.next_adjacent, desc.next_adjacent);
  EXPECT_EQ(decoded.length, desc.length);
  EXPECT_EQ(decoded.src_addr, desc.src_addr);
  EXPECT_EQ(decoded.dst_addr, desc.dst_addr);
  EXPECT_EQ(decoded.next_addr, desc.next_addr);
  EXPECT_TRUE(decoded.stop());
}

TEST(XdmaDescriptor, BadMagicRejected) {
  std::array<u8, kDescriptorBytes> raw{};  // all zero: magic 0
  XdmaDescriptor decoded;
  EXPECT_FALSE(XdmaDescriptor::decode(raw, decoded));
}

struct EngineFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  XdmaIpFunction device{64 * 1024};

  void SetUp() override {
    rc.attach(device);
    device.connect(rc);
    auto devices = pcie::enumerate_bus(rc);
    ASSERT_EQ(devices.size(), 1u);
    enumerated = devices.front();
  }
  pcie::EnumeratedDevice enumerated;

  HostAddr write_descriptor(const XdmaDescriptor& desc) {
    const HostAddr addr = memory.allocate(kDescriptorBytes, 32);
    std::array<u8, kDescriptorBytes> raw{};
    desc.encode(raw);
    memory.write(addr, raw);
    return addr;
  }
};

TEST_F(EngineFixture, H2cMovesHostDataIntoBram) {
  const HostAddr src = memory.allocate(256);
  Bytes pattern(256);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>(i ^ 0x5a);
  }
  memory.write(src, pattern);

  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop | descctl::kEop;
  desc.length = 256;
  desc.src_addr = src;
  desc.dst_addr = 0x100;  // BRAM offset
  device.h2c().set_descriptor_address(write_descriptor(desc));

  const auto result = device.h2c().run(sim::SimTime{});
  EXPECT_FALSE(result.error);
  EXPECT_EQ(result.descriptors_processed, 1u);
  EXPECT_EQ(result.bytes_moved, 256u);
  Bytes bram_data(256);
  device.bram().read(0x100, bram_data);
  EXPECT_EQ(bram_data, pattern);
  EXPECT_GT(result.complete.micros(), 1.0);  // desc fetch + payload read
}

TEST_F(EngineFixture, C2hMovesBramDataToHost) {
  Bytes pattern(128, 0xc3);
  device.bram().write(0x40, pattern);
  const HostAddr dst = memory.allocate(128);

  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop;
  desc.length = 128;
  desc.src_addr = 0x40;  // card address for C2H
  desc.dst_addr = dst;
  device.c2h().set_descriptor_address(write_descriptor(desc));

  const auto result = device.c2h().run(sim::SimTime{});
  EXPECT_FALSE(result.error);
  EXPECT_EQ(memory.read_bytes(dst, 128), pattern);
}

TEST_F(EngineFixture, DescriptorChainsFollowNextPointers) {
  const HostAddr src_a = memory.allocate(64);
  const HostAddr src_b = memory.allocate(64);
  memory.fill(src_a, 0x11, 64);
  memory.fill(src_b, 0x22, 64);

  XdmaDescriptor second;
  second.control_flags = descctl::kStop;
  second.length = 64;
  second.src_addr = src_b;
  second.dst_addr = 64;
  const HostAddr second_addr = write_descriptor(second);

  XdmaDescriptor first;
  first.control_flags = 0;  // chain continues
  first.length = 64;
  first.src_addr = src_a;
  first.dst_addr = 0;
  first.next_addr = second_addr;
  device.h2c().set_descriptor_address(write_descriptor(first));

  const auto result = device.h2c().run(sim::SimTime{});
  EXPECT_EQ(result.descriptors_processed, 2u);
  EXPECT_EQ(result.bytes_moved, 128u);
  EXPECT_EQ(bram_byte(device.bram(), 0), 0x11);
  EXPECT_EQ(bram_byte(device.bram(), 64), 0x22);
}

TEST_F(EngineFixture, BadMagicStopsEngineWithError) {
  const HostAddr garbage = memory.allocate(kDescriptorBytes);
  memory.fill(garbage, 0xff, kDescriptorBytes);
  device.h2c().set_descriptor_address(garbage);
  const auto result = device.h2c().run(sim::SimTime{});
  EXPECT_TRUE(result.error);
  EXPECT_NE(device.h2c().status() & regs::kStatusMagicStopped, 0u);
}

TEST_F(EngineFixture, FabricTransferSkipsDescriptorFetch) {
  const HostAddr src = memory.allocate(512);
  memory.fill(src, 0x99, 512);

  // Fabric mode vs host-driven mode on identical payloads: fabric is
  // faster by at least the descriptor-fetch round trip.
  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop;
  desc.length = 512;
  desc.src_addr = src;
  desc.dst_addr = 0;
  device.h2c().set_descriptor_address(write_descriptor(desc));
  const auto hosted = device.h2c().run(sim::SimTime{});

  const auto fabric_done =
      device.h2c().transfer(sim::SimTime{}, src, 0x1000, 512);
  EXPECT_LT(fabric_done.micros() + 1.0, hosted.complete.micros());
  EXPECT_EQ(bram_byte(device.bram(), 0x1000), 0x99);
}

TEST_F(EngineFixture, CompletionInterruptFiresWhenEnabled) {
  hostos::InterruptController irq;
  rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
  // Program MSI-X entry 0 (H2C) manually.
  const u32 vector = irq.allocate_vector();
  auto port = rc.dma_port(device);
  device.msix().aperture_write(pcie::kMsixEntryAddrLo,
                               static_cast<u32>(pcie::kMsiWindowBase), 4,
                               sim::SimTime{}, port);
  device.msix().aperture_write(pcie::kMsixEntryData, vector, 4,
                               sim::SimTime{}, port);
  device.msix().aperture_write(pcie::kMsixEntryControl, 0, 4, sim::SimTime{},
                               port);
  device.h2c().set_interrupt_enable(true);

  const HostAddr src = memory.allocate(64);
  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop;
  desc.length = 64;
  desc.src_addr = src;
  desc.dst_addr = 0;
  device.h2c().set_descriptor_address(write_descriptor(desc));
  const auto result = device.h2c().run(sim::SimTime{});
  ASSERT_TRUE(irq.pending(vector));
  EXPECT_GE(irq.consume(vector).picos(), result.complete.picos());
}

TEST_F(EngineFixture, PollModeWritebackLandsInHostMemory) {
  const HostAddr wb = memory.allocate(8);
  const HostAddr src = memory.allocate(64);
  device.c2h().set_writeback_address(wb);
  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop;
  desc.length = 64;
  desc.src_addr = 0;
  desc.dst_addr = src;
  device.c2h().set_descriptor_address(write_descriptor(desc));
  device.c2h().run(sim::SimTime{});
  // One completed descriptor.
  EXPECT_EQ(testing_support::read_le32(memory, wb), 1u);
}

TEST_F(EngineFixture, RegisterFileIdentifiersAndStatus) {
  const u64 h2c_id =
      device.bar_read(0, regs::kH2cChannelBase + regs::kChIdentifier, 4,
                      sim::SimTime{});
  const u64 c2h_id =
      device.bar_read(0, regs::kC2hChannelBase + regs::kChIdentifier, 4,
                      sim::SimTime{});
  EXPECT_EQ(h2c_id >> 20, 0x1fcu);
  EXPECT_EQ(c2h_id >> 20, 0x1fcu);
  EXPECT_NE(h2c_id, c2h_id);  // direction bit differs

  // Status read-to-clear semantics.
  const HostAddr src = memory.allocate(32);
  XdmaDescriptor desc;
  desc.control_flags = descctl::kStop;
  desc.length = 32;
  desc.src_addr = src;
  desc.dst_addr = 0;
  const HostAddr desc_addr = write_descriptor(desc);
  device.bar_write(0, regs::kH2cSgdmaBase + regs::kSgDescLo,
                   desc_addr & 0xffffffffu, 4, sim::SimTime{});
  device.bar_write(0, regs::kH2cSgdmaBase + regs::kSgDescHi, desc_addr >> 32,
                   4, sim::SimTime{});
  device.bar_write(0, regs::kH2cChannelBase + regs::kChControlW1S,
                   regs::kControlRun, 4, sim::SimTime{});
  const u64 status = device.bar_read(
      0, regs::kH2cChannelBase + regs::kChStatusRC, 4, sim::SimTime{});
  EXPECT_NE(status & regs::kStatusDescStopped, 0u);
  EXPECT_EQ(device.bar_read(0, regs::kH2cChannelBase + regs::kChStatusRC, 4,
                            sim::SimTime{}),
            0u);  // cleared by the first read
}

// ---- host driver ------------------------------------------------------------------

struct DriverFixture : EngineFixture {
  hostos::InterruptController irq;
  sim::Xoshiro256 rng{1};
  sim::NoiseModel noise{sim::NoiseConfig{.enabled = false}};
  hostos::CostModelConfig costs = hostos::CostModelConfig::fedora_defaults();
  hostos::HostThread thread{rng, costs, noise};
  XdmaHostDriver driver;

  void SetUp() override {
    EngineFixture::SetUp();
    rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    XdmaHostDriver::BindContext ctx;
    ctx.rc = &rc;
    ctx.device = &device;
    ctx.enumerated = &enumerated;
    ctx.irq = &irq;
    ASSERT_TRUE(driver.probe(ctx, thread));
  }
};

TEST_F(DriverFixture, MultiPageTransfersChainDescriptors) {
  // A 10 KiB transfer spans three pinned pages: the driver must emit a
  // 3-descriptor chain and the engine must walk it.
  Bytes out(10 * 1024);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<u8>(i * 13 + 5);
  }
  const u32 h2c_before = device.h2c().completed_descriptor_count();
  ASSERT_TRUE(driver.h2c_transfer(thread, out));
  EXPECT_EQ(device.h2c().completed_descriptor_count() - h2c_before, 3u);
  Bytes in(out.size(), 0);
  ASSERT_TRUE(driver.c2h_transfer(thread, in));
  EXPECT_EQ(in, out);
}

TEST_F(DriverFixture, BlockingTransfersLoopBack) {
  Bytes out(300, 0xee);
  ASSERT_TRUE(driver.h2c_transfer(thread, out));
  Bytes in(300, 0);
  ASSERT_TRUE(driver.c2h_transfer(thread, in));
  EXPECT_EQ(in, out);
  EXPECT_EQ(driver.transfers_completed(), 2u);
}

TEST_F(DriverFixture, InterruptModeBlocksUntilCompletion) {
  const sim::SimTime before = thread.now();
  Bytes data(1024, 1);
  ASSERT_TRUE(driver.h2c_transfer(thread, data));
  // write() spans submission + DMA + ISR + wake: >= several microseconds.
  EXPECT_GT((thread.now() - before).micros(), 5.0);
  // The ISR's status register read stalls the CPU (non-posted).
  EXPECT_GT(thread.mmio_stall_time().micros(), 1.0);
}

TEST_F(DriverFixture, PollModeAvoidsInterrupts) {
  driver.set_poll_mode(true);
  const u64 irqs_before = irq.delivered_count();
  Bytes data(256, 2);
  ASSERT_TRUE(driver.h2c_transfer(thread, data));
  // The completion interrupt fires into the void (channel IRQ remains
  // enabled) but the driver never waits on it; poll mode consumed MMIO
  // status reads instead.
  EXPECT_GT(thread.mmio_stall_time().micros(), 1.0);
  (void)irqs_before;
}

TEST_F(DriverFixture, RejectsForeignDevice) {
  XdmaHostDriver other;
  pcie::EnumeratedDevice wrong = enumerated;
  wrong.vendor_id = 0x8086;
  XdmaHostDriver::BindContext ctx;
  ctx.rc = &rc;
  ctx.device = &device;
  ctx.enumerated = &wrong;
  ctx.irq = &irq;
  EXPECT_FALSE(other.probe(ctx, thread));
}

}  // namespace
}  // namespace vfpga::xdma
