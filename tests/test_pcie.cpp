// Unit tests: link timing model, config space, capability chains,
// enumeration, MSI-X (table capacity included), root complex routing.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "support/mem_read.hpp"
#include "support/test_driver.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/pcie/capabilities.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/pcie/link_model.hpp"
#include "vfpga/pcie/msix.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/xdma/registers.hpp"
#include "vfpga/xdma/xdma_ip.hpp"

namespace vfpga::pcie {
namespace {

// ---- link model -----------------------------------------------------------------

TEST(LinkModel, SerializationScalesWithPayload) {
  LinkModel link;
  const auto t64 = link.tlp_wire_time(64);
  const auto t128 = link.tlp_wire_time(128);
  EXPECT_GT(t128, t64);
  // 1 byte/ns effective: 64 extra bytes = 64 extra ns.
  EXPECT_EQ((t128 - t64).nanos(), 64.0);
}

TEST(LinkModel, PostedWriteSplitsAtMps) {
  LinkModel link;
  const u32 mps = link.config().limits.max_payload_size;
  const auto one = link.dma_write_time(mps);
  const auto two = link.dma_write_time(mps + 1);
  // Second TLP adds another header's worth of wire time.
  EXPECT_GT(two.issuer_busy, one.issuer_busy);
  EXPECT_GE((two.issuer_busy - one.issuer_busy).nanos(),
            static_cast<double>(kTlpOverheadBytes));
}

TEST(LinkModel, ReadRoundTripExceedsOneWayLatency) {
  LinkModel link;
  const auto rt = link.dma_read_time(4);
  EXPECT_GT(rt, link.one_way_latency() * 2);
  // Small reads on this class of endpoint land in the ~1-2 us range.
  EXPECT_GT(rt.micros(), 0.8);
  EXPECT_LT(rt.micros(), 3.0);
}

TEST(LinkModel, ReadSplitsAtMrrsAndMps) {
  LinkModel link;
  const auto small = link.dma_read_time(256);
  const auto large = link.dma_read_time(2048);
  EXPECT_GT(large, small);
  // 2048B = 4 read requests (MRRS 512) and 8 completions (MPS 256).
  const double delta_ns = (large - small).nanos();
  EXPECT_GT(delta_ns, 1792.0);  // at least the extra serialization
}

TEST(LinkModel, MmioReadIsExpensive) {
  LinkModel link;
  // Register reads over PCIe on 7-series endpoints: ~1-2 us.
  EXPECT_GT(link.mmio_read_time(4).micros(), 1.0);
  EXPECT_LT(link.mmio_read_time(4).micros(), 3.0);
  // Posted writes release the CPU quickly.
  EXPECT_LT(link.mmio_write_time(4).issuer_busy.nanos(), 300.0);
}

TEST(LinkModel, PostedIssuerFreedBeforeDelivery) {
  LinkModel link;
  const auto timing = link.dma_write_time(1024);
  EXPECT_LT(timing.issuer_busy, timing.delivered);
}

// ---- config space ------------------------------------------------------------------

TEST(ConfigSpace, IdsAndClassCode) {
  ConfigSpace config;
  config.set_ids(0x1af4, 0x1041, 0x1af4, 0x0001);
  config.set_revision(0x01);
  config.set_class_code(0x02, 0x00, 0x00);
  EXPECT_EQ(config.vendor_id(), 0x1af4);
  EXPECT_EQ(config.device_id(), 0x1041);
  EXPECT_EQ(config.revision(), 0x01);
  EXPECT_EQ(config.read16(cfg::kSubsystemId), 0x0001);
  EXPECT_EQ(config.read8(cfg::kClassCode + 2), 0x02);
}

TEST(ConfigSpace, BarSizingProtocol) {
  ConfigSpace config;
  config.define_bar(0, BarDefinition{0x4000, false, false});
  // Sizing: write all-ones, read back the mask.
  config.write32(cfg::kBar0, 0xffffffffu);
  const u32 mask = config.read32(cfg::kBar0);
  EXPECT_EQ(mask & ~0xfu, ~u32{0x4000 - 1} & ~0xfu);
  // Then program the address.
  config.write32(cfg::kBar0, 0xe0000000u);
  EXPECT_EQ(config.bar_address(0), 0xe0000000u);
  EXPECT_EQ(config.read32(cfg::kBar0) & ~0xfu, 0xe0000000u);
}

TEST(ConfigSpace, SixtyFourBitBarUsesTwoRegisters) {
  ConfigSpace config;
  config.define_bar(2, BarDefinition{0x10000, true, false});
  config.write32(cfg::kBar0 + 8, 0xffffffffu);
  config.write32(cfg::kBar0 + 12, 0xffffffffu);
  EXPECT_EQ(config.read32(cfg::kBar0 + 8) & 0x4u, 0x4u);  // 64-bit flag
  config.write32(cfg::kBar0 + 8, 0x40000000u);
  config.write32(cfg::kBar0 + 12, 0x1u);
  EXPECT_EQ(config.bar_address(2), 0x1'4000'0000ull);
}

TEST(ConfigSpace, UnimplementedBarReadsZero) {
  ConfigSpace config;
  config.write32(cfg::kBar0 + 4, 0xffffffffu);
  EXPECT_EQ(config.read32(cfg::kBar0 + 4), 0u);
}

TEST(ConfigSpace, CapabilityChainLinksInOrder) {
  ConfigSpace config;
  const Bytes body1(4, 0x11);
  const Bytes body2(6, 0x22);
  const u16 cap1 = config.add_capability(CapabilityId::PciExpress, body1);
  const u16 cap2 = config.add_capability(CapabilityId::MsiX, body2);
  EXPECT_EQ(config.read8(cfg::kCapabilityPointer), cap1);
  EXPECT_EQ(config.read8(cap1 + 1), cap2);
  EXPECT_EQ(config.read8(cap2 + 1), 0);  // end of chain
  EXPECT_NE(config.read16(cfg::kStatus) & cfg::kStatusCapList, 0);
  EXPECT_EQ(config.find_capability(CapabilityId::PciExpress), cap1);
  EXPECT_EQ(config.find_capability(CapabilityId::MsiX), cap2);
  EXPECT_EQ(config.find_capability(CapabilityId::Msi), 0);
}

TEST(ConfigSpace, FindCapabilityAfterSkipsEarlier) {
  ConfigSpace config;
  const u16 a =
      config.add_capability(CapabilityId::VendorSpecific, Bytes(4, 1));
  const u16 b =
      config.add_capability(CapabilityId::VendorSpecific, Bytes(4, 2));
  EXPECT_EQ(config.find_capability(CapabilityId::VendorSpecific), a);
  EXPECT_EQ(config.find_capability(CapabilityId::VendorSpecific, a), b);
  EXPECT_EQ(config.find_capability(CapabilityId::VendorSpecific, b), 0);
}

TEST(Capabilities, PciExpressEncodeDecode) {
  PciExpressCapability cap;
  cap.max_payload_encoding = 1;       // 256B
  cap.max_read_request_encoding = 2;  // 512B
  const Bytes body = cap.encode();
  // Device Control: MPS in bits 7:5, MRRS in bits 14:12.
  const u16 control = load_le16(body, 6);
  EXPECT_EQ((control >> 5) & 0x7, 1);
  EXPECT_EQ((control >> 12) & 0x7, 2);
}

TEST(Capabilities, MsixBodyRoundTrip) {
  ConfigSpace config;
  const u16 offset = config.add_capability(
      CapabilityId::MsiX, make_msix_capability_body(8, 0, 0x2000, 0, 0x3000));
  const MsixCapabilityInfo info = decode_msix_capability(config, offset);
  EXPECT_EQ(info.table_size, 8);
  EXPECT_EQ(info.table_bar, 0);
  EXPECT_EQ(info.table_offset, 0x2000u);
  EXPECT_EQ(info.pba_offset, 0x3000u);
}

// ---- root complex + enumeration ------------------------------------------------------

/// Minimal endpoint for routing tests: one BAR, a register file.
class ScratchFunction : public Function {
 public:
  ScratchFunction() {
    config().set_ids(0x10ee, 0x7024, 0x10ee, 0x7);
    config().define_bar(0, BarDefinition{4096, false, false});
  }
  u64 bar_read(u32 bar, BarOffset offset, u32 size, sim::SimTime) override {
    reads.push_back(offset);
    (void)bar;
    (void)size;
    return regs.count(offset) ? regs[offset] : 0xabcd;
  }
  void bar_write(u32 bar, BarOffset offset, u64 value, u32 size,
                 sim::SimTime at) override {
    (void)bar;
    (void)size;
    regs[offset] = value;
    last_write_time = at;
  }
  std::map<BarOffset, u64> regs;
  std::vector<BarOffset> reads;
  sim::SimTime last_write_time{};
};

struct RcFixture : ::testing::Test {
  mem::HostMemory memory;
  RootComplex rc{memory, LinkModel{}};
  ScratchFunction fn;

  void SetUp() override {
    rc.attach(fn);
    auto devices = enumerate_bus(rc);
    ASSERT_EQ(devices.size(), 1u);
    device = devices.front();
  }
  EnumeratedDevice device;
};

TEST_F(RcFixture, EnumerationAssignsAndEnables) {
  EXPECT_EQ(device.vendor_id, 0x10ee);
  EXPECT_EQ(device.device_id, 0x7024);
  ASSERT_EQ(device.bars.size(), 1u);
  EXPECT_EQ(device.bars[0].index, 0u);
  EXPECT_EQ(device.bars[0].size, 4096u);
  EXPECT_GE(device.bars[0].address, 0xe000'0000ull);
  EXPECT_TRUE(fn.config().memory_enabled());
  EXPECT_TRUE(fn.config().bus_master_enabled());
}

TEST_F(RcFixture, MmioWriteDeliveredLater) {
  const auto result = rc.cpu_mmio_write(fn, 0, 0x10, 42, 4, sim::SimTime{});
  EXPECT_EQ(fn.regs[0x10], 42u);
  EXPECT_GT(fn.last_write_time.nanos(), result.cpu_cost.nanos());
}

TEST_F(RcFixture, MmioReadStallsCpu) {
  const auto result = rc.cpu_mmio_read(fn, 0, 0x20, 4, sim::SimTime{});
  EXPECT_EQ(result.value, 0xabcdu);
  EXPECT_GT(result.cpu_stall.micros(), 1.0);
}

TEST_F(RcFixture, DmaMovesRealBytes) {
  DmaPort port = rc.dma_port(fn);
  const Bytes data{0xde, 0xad, 0xbe, 0xef};
  const auto timing = port.write(sim::SimTime{}, 0x9000, data);
  EXPECT_EQ(memory.read_bytes(0x9000, 4), data);
  EXPECT_GT(timing.delivered, timing.issuer_free);

  Bytes readback(4);
  const auto done = port.read(timing.delivered, 0x9000, readback);
  EXPECT_EQ(readback, data);
  EXPECT_GT(done, timing.delivered);
}

TEST_F(RcFixture, MsiWindowWriteDeliversInterrupt) {
  u32 delivered_data = 0;
  sim::SimTime delivered_at{};
  rc.set_irq_sink([&](u32 data, sim::SimTime at) {
    delivered_data = data;
    delivered_at = at;
  });
  DmaPort port = rc.dma_port(fn);
  std::array<u8, 4> message{};
  store_le32(message, 0, 0x31);
  port.write(sim::SimTime{}, kMsiWindowBase + 0x40, message);
  EXPECT_EQ(delivered_data, 0x31u);
  EXPECT_GT(delivered_at.nanos(), 0.0);
  // MSI writes must not land in memory.
  EXPECT_EQ(testing_support::read_le32(memory, kMsiWindowBase + 0x40), 0u);
}

// ---- MSI-X table ----------------------------------------------------------------------

TEST_F(RcFixture, MsixMaskedVectorSetsPendingThenDeliversOnUnmask) {
  u32 count = 0;
  rc.set_irq_sink([&](u32, sim::SimTime) { ++count; });
  DmaPort port = rc.dma_port(fn);
  MsixTable table{2};

  // Program vector 0 but leave it masked (the reset state).
  table.aperture_write(kMsixEntryAddrLo, static_cast<u32>(kMsiWindowBase), 4,
                       sim::SimTime{}, port);
  table.aperture_write(kMsixEntryData, 7, 4, sim::SimTime{}, port);
  table.fire(0, sim::SimTime{}, port);
  EXPECT_EQ(count, 0u);

  // Unmasking flushes the pending interrupt, and clears the pending bit:
  // a second mask/unmask cycle delivers nothing more.
  table.aperture_write(kMsixEntryControl, 0, 4, sim::SimTime{}, port);
  EXPECT_EQ(count, 1u);
  table.aperture_write(kMsixEntryControl, kMsixControlMasked, 4,
                       sim::SimTime{}, port);
  table.aperture_write(kMsixEntryControl, 0, 4, sim::SimTime{}, port);
  EXPECT_EQ(count, 1u);
}

TEST_F(RcFixture, MsixUnmaskedVectorFiresImmediately) {
  std::vector<u32> seen;
  rc.set_irq_sink([&](u32 data, sim::SimTime) { seen.push_back(data); });
  DmaPort port = rc.dma_port(fn);
  MsixTable table{4};
  for (u32 v = 0; v < 4; ++v) {
    const BarOffset base = v * kMsixEntryBytes;
    table.aperture_write(base + kMsixEntryAddrLo,
                         static_cast<u32>(kMsiWindowBase), 4, sim::SimTime{},
                         port);
    table.aperture_write(base + kMsixEntryData, 100 + v, 4, sim::SimTime{},
                         port);
    table.aperture_write(base + kMsixEntryControl, 0, 4, sim::SimTime{},
                         port);
  }
  table.fire(2, sim::SimTime{}, port);
  table.fire(0, sim::SimTime{}, port);
  EXPECT_EQ(seen, (std::vector<u32>{102, 100}));
}

/// Programs the last entry of a function's MSI-X table through bar_write
/// and reads every field back through bar_read. Then makes the accesses
/// the window does not implement (past the last entry, misaligned, not
/// 4 bytes wide): each reads 0 or is dropped, and the entry is unchanged.
void expect_msix_window(Function& fn, BarOffset table, u32 entries) {
  const sim::SimTime t{};
  const BarOffset last = table + (entries - 1) * kMsixEntryBytes;
  const auto read = [&](BarOffset at, u32 size = 4) {
    return fn.bar_read(0, at, size, t);
  };
  EXPECT_EQ(read(last + kMsixEntryControl), kMsixControlMasked);
  fn.bar_write(0, last + kMsixEntryAddrLo, 0xfee0'1230u, 4, t);
  fn.bar_write(0, last + kMsixEntryAddrHi, 0x1u, 4, t);
  fn.bar_write(0, last + kMsixEntryData, 0x2au, 4, t);
  fn.bar_write(0, last + kMsixEntryControl, 0, 4, t);
  const auto expect_entry = [&] {
    EXPECT_EQ(read(last + kMsixEntryAddrLo), 0xfee0'1230u);
    EXPECT_EQ(read(last + kMsixEntryAddrHi), 0x1u);
    EXPECT_EQ(read(last + kMsixEntryData), 0x2au);
    EXPECT_EQ(read(last + kMsixEntryControl), 0u);
  };
  expect_entry();

  const BarOffset past = table + entries * kMsixEntryBytes;
  EXPECT_EQ(read(past), 0u);
  fn.bar_write(0, past + kMsixEntryData, 0x77u, 4, t);
  EXPECT_EQ(read(last + kMsixEntryData + 2), 0u);
  fn.bar_write(0, last + kMsixEntryAddrLo + 2, 0xffffu, 4, t);
  EXPECT_EQ(read(last + kMsixEntryData, 2), 0u);
  fn.bar_write(0, last + kMsixEntryData, 0x77u, 2, t);
  fn.bar_write(0, last + kMsixEntryAddrLo, 0x77u, 8, t);
  expect_entry();
}

TEST(MsixWindow, EntriesReadBackAndUnimplementedAccessesAreIgnored) {
  mem::HostMemory memory;
  RootComplex rc{memory, LinkModel{}};
  core::ConsoleDeviceLogic console;
  core::VirtioDeviceFunction virtio_fn{console};
  xdma::XdmaIpFunction xdma_fn{64 * 1024};
  rc.attach(virtio_fn);
  rc.attach(xdma_fn);
  virtio_fn.connect(rc);
  xdma_fn.connect(rc);
  {
    SCOPED_TRACE("virtio");
    expect_msix_window(virtio_fn, core::kMsixTableOffset,
                       virtio_fn.msix().size());
  }
  {
    SCOPED_TRACE("xdma");
    expect_msix_window(xdma_fn, xdma::kMsixTableOffset,
                       xdma_fn.msix().size());
  }
}

// The XDMA register file decodes 32-bit accesses only. Any other width
// outside the MSI-X window reads 0 or is dropped, and the register is
// unchanged.
TEST(MsixWindow, XdmaRegistersIgnoreAccessesNotFourBytesWide) {
  mem::HostMemory memory;
  RootComplex rc{memory, LinkModel{}};
  xdma::XdmaIpFunction xdma_fn{64 * 1024};
  rc.attach(xdma_fn);
  xdma_fn.connect(rc);
  const sim::SimTime t{};
  EXPECT_EQ(xdma_fn.bar_read(0, 0, 2, t), 0u);
  EXPECT_EQ(xdma_fn.bar_read(0, 0, 4, t),
            xdma::regs::channel_identifier(false, 0));

  const BarOffset desc_lo = xdma::regs::kH2cSgdmaBase + xdma::regs::kSgDescLo;
  xdma_fn.bar_write(0, desc_lo, 0x1000u, 4, t);
  xdma_fn.bar_write(0, desc_lo, 0x2000u, 2, t);
  xdma_fn.bar_write(0, desc_lo, 0x3000u, 8, t);
  EXPECT_EQ(xdma_fn.bar_read(0, desc_lo, 8, t), 0u);
  EXPECT_EQ(xdma_fn.bar_read(0, desc_lo, 4, t), 0x1000u);
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
  core::NetDeviceLogic logic;  // 2 queues, 3-entry MSI-X table
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
  drv.wr16(virtio::commoncfg::kQueueMsixVector, 3);
  EXPECT_EQ(drv.rd16(virtio::commoncfg::kQueueMsixVector), virtio::kNoVector);
  drv.wr16(virtio::commoncfg::kQueueMsixVector, 2);  // in range sticks
  EXPECT_EQ(drv.rd16(virtio::commoncfg::kQueueMsixVector), 2);
}

}  // namespace
}  // namespace vfpga::pcie
