// VirtIO controller (the paper's contribution) protocol-level tests,
// driven through the real MMIO surface with a minimal test driver.
#include <gtest/gtest.h>

#include <array>

#include "support/mem_read.hpp"
#include "support/test_driver.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/net_defs.hpp"
#include "vfpga/virtio/ring_layout.hpp"

namespace vfpga::core {
namespace {

using testing_support::TestDriver;

/// The device-specific config window as the driver reads it, byte by byte.
Bytes read_device_config(VirtioDeviceFunction& device, sim::SimTime at) {
  Bytes bytes(device.user_logic().device_config_size());
  for (u32 i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<u8>(device.bar_read(0, kDeviceCfgOffset + i, 1, at));
  }
  return bytes;
}

/// Writes the bitwise complement of every 1-, 2- and 4-byte field of the
/// device-specific config window, then checks that every byte reads back
/// unchanged and that the device did not latch DEVICE_NEEDS_RESET.
void expect_config_writes_ignored(VirtioDeviceFunction& device,
                                  sim::SimTime at) {
  const Bytes before = read_device_config(device, at);
  for (const u32 width : {1u, 2u, 4u}) {
    for (u32 offset = 0; offset + width <= before.size(); offset += width) {
      u64 complement = 0;
      for (u32 i = 0; i < width; ++i) {
        complement |= static_cast<u64>(static_cast<u8>(~before[offset + i]))
                      << (8 * i);
      }
      device.bar_write(0, kDeviceCfgOffset + offset, complement, width, at);
    }
  }
  EXPECT_EQ(read_device_config(device, at), before);
  EXPECT_EQ(device.device_status() & virtio::status::kDeviceNeedsReset, 0);
}

struct ControllerFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  ConsoleDeviceLogic console;
  ControllerConfig config;
  std::optional<VirtioDeviceFunction> device;
  hostos::InterruptController irq;
  std::optional<TestDriver> driver;

  void SetUp() override {
    device.emplace(console, config);
    rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    rc.attach(*device);
    device->connect(rc);
    auto devices = pcie::enumerate_bus(rc);
    ASSERT_EQ(devices.size(), 1u);
    driver.emplace(rc, *device, irq);
  }
};

TEST_F(ControllerFixture, IdentityMatchesPersonality) {
  EXPECT_EQ(device->config().vendor_id(), virtio::kVirtioPciVendorId);
  EXPECT_EQ(device->config().device_id(),
            virtio::modern_pci_device_id(virtio::DeviceType::Console));
  EXPECT_EQ(device->config().revision(), virtio::kVirtioPciModernRevision);
  const auto layout = virtio::parse_virtio_capabilities(device->config());
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->device_specific.length,
            virtio::console::ConsoleConfigLayout::kSize);
}

TEST_F(ControllerFixture, InitializationNegotiatesAndEnablesQueues) {
  driver->initialize(2);
  EXPECT_TRUE(device->device_status() & virtio::status::kDriverOk);
  EXPECT_TRUE(device->negotiated_features().has(virtio::feature::kVersion1));
  EXPECT_TRUE(testing_support::queue_registers(*device, 0).enabled);
  EXPECT_TRUE(testing_support::queue_registers(*device, 1).enabled);
  EXPECT_EQ(testing_support::queue_registers(*device, 0).rings.desc,
            driver->vq(0).addresses().desc);
}

TEST_F(ControllerFixture, QueueSizeNegotiationShrinks) {
  driver->wr16(virtio::commoncfg::kQueueSelect, 0);
  EXPECT_EQ(driver->rd16(virtio::commoncfg::kQueueSize), 256);
  driver->wr16(virtio::commoncfg::kQueueSize, 32);
  EXPECT_EQ(driver->rd16(virtio::commoncfg::kQueueSize), 32);
}

// §4.1.4.3: a queue_select past the device's queues selects an absent
// queue. Its queue_size reads 0 ("unavailable") and writes to its
// registers are ignored; the real queues keep their state.
TEST_F(ControllerFixture, QueueSelectPastTheQueuesSelectsAnAbsentQueue) {
  using namespace virtio::commoncfg;
  driver->wr16(kQueueSelect, 2);
  EXPECT_EQ(driver->rd16(kQueueSelect), 2);
  EXPECT_EQ(driver->rd16(kQueueSize), 0);
  driver->wr16(kQueueSize, 16);
  driver->wr64(kQueueDesc, 0x1000);
  driver->wr16(kQueueEnable, 1);
  EXPECT_EQ(driver->rd16(kQueueSize), 0);
  EXPECT_EQ(driver->rd16(kQueueEnable), 0);
  for (u16 q = 0; q < 2; ++q) {
    EXPECT_EQ(testing_support::queue_registers(*device, q).size, 256);
    EXPECT_EQ(testing_support::queue_registers(*device, q).rings.desc, 0u);
    EXPECT_FALSE(testing_support::queue_registers(*device, q).enabled);
  }
  driver->initialize(2);
  EXPECT_TRUE(testing_support::queue_registers(*device, 1).enabled);
}

// A queue_size of 0 or past the maximum does not take.
TEST_F(ControllerFixture, QueueSizeOutOfRangeIsIgnored) {
  using namespace virtio::commoncfg;
  driver->wr16(kQueueSelect, 0);
  driver->wr16(kQueueSize, 0);
  EXPECT_EQ(driver->rd16(kQueueSize), 256);
  driver->wr16(kQueueSize, 512);
  EXPECT_EQ(driver->rd16(kQueueSize), 256);
  driver->wr16(kQueueSize, 32);
  EXPECT_EQ(driver->rd16(kQueueSize), 32);
  EXPECT_EQ(device->device_errors(), 0u);
}

// A split ring the queue engine cannot walk (§2.7: a size that is not a
// power of two, or a misaligned descriptor table) does not enable, and
// the device latches DEVICE_NEEDS_RESET; a reset recovers it.
TEST_F(ControllerFixture, EnablingAnUnwalkableSplitRingLatchesNeedsReset) {
  using namespace virtio::commoncfg;
  const HostAddr rings = memory.allocate(64 * 1024, 4096);
  const auto enable_queue0 = [&](u16 size, HostAddr desc) {
    driver->wr32(kDeviceStatus, 0);
    driver->wr16(kQueueSelect, 0);
    driver->wr16(kQueueSize, size);
    driver->wr64(kQueueDesc, desc);
    driver->wr64(kQueueDriver, rings + 32 * 1024);
    driver->wr64(kQueueDevice, rings + 48 * 1024);
    driver->wr16(kQueueEnable, 1);
  };
  enable_queue0(24, rings);
  EXPECT_FALSE(testing_support::queue_registers(*device, 0).enabled);
  EXPECT_NE(device->device_status() & virtio::status::kDeviceNeedsReset, 0);
  EXPECT_EQ(device->device_errors(), 1u);

  enable_queue0(16, rings + 8);
  EXPECT_FALSE(testing_support::queue_registers(*device, 0).enabled);
  EXPECT_EQ(device->device_errors(), 2u);

  enable_queue0(16, rings);
  EXPECT_TRUE(testing_support::queue_registers(*device, 0).enabled);
  EXPECT_EQ(device->device_status() & virtio::status::kDeviceNeedsReset, 0);
}

TEST_F(ControllerFixture, NumQueuesReflectsPersonality) {
  EXPECT_EQ(driver->rd16(virtio::commoncfg::kNumQueues), 2);
}

TEST_F(ControllerFixture, NotifyBeforeDriverOkIsIgnored) {
  driver->notify(0);
  EXPECT_EQ(device->frames_processed(), 0u);
}

TEST_F(ControllerFixture, ResetClearsEverything) {
  driver->initialize(2);
  driver->wr32(virtio::commoncfg::kDeviceStatus, 0);
  EXPECT_EQ(device->device_status(), 0);
  EXPECT_FALSE(testing_support::queue_registers(*device, 0).enabled);
  EXPECT_EQ(device->negotiated_features().bits(), 0u);
}

TEST_F(ControllerFixture, EchoThroughQueuesWithInterrupt) {
  driver->initialize(2);
  // Post an RX buffer, then send a TX payload.
  const HostAddr rx_buf = memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  ASSERT_TRUE(driver->vq(virtio::console::kRxQueue)
                  .add_chain(std::span{&rx, 1}, 1)
                  .has_value());
  driver->vq(virtio::console::kRxQueue).publish();

  const HostAddr tx_buf = memory.allocate(16);
  const Bytes message{'f', 'p', 'g', 'a'};
  memory.write(tx_buf, message);
  const virtio::ChainBuffer tx{tx_buf, 4, false};
  ASSERT_TRUE(driver->vq(virtio::console::kTxQueue)
                  .add_chain(std::span{&tx, 1}, 2)
                  .has_value());
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);

  // RX interrupt delivered, used entry present, bytes echoed.
  ASSERT_TRUE(irq.pending(driver->queue_vector(virtio::console::kRxQueue)));
  const auto completion =
      driver->vq(virtio::console::kRxQueue).harvest_used();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->written, 4u);
  EXPECT_EQ(memory.read_bytes(rx_buf, 4), message);
  EXPECT_EQ(console.bytes_echoed(), 4u);
}

/// One console echo: post a 64-byte RX buffer, send `message` on TX,
/// and return the bytes the device wrote back (empty when no completion
/// arrived).
Bytes console_echo(TestDriver& driver, mem::HostMemory& memory,
                   const Bytes& message) {
  const HostAddr rx_buf = memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  EXPECT_TRUE(driver.vq(virtio::console::kRxQueue)
                  .add_chain(std::span{&rx, 1}, 1)
                  .has_value());
  driver.vq(virtio::console::kRxQueue).publish();
  const HostAddr tx_buf = memory.allocate(64);
  memory.write(tx_buf, message);
  const virtio::ChainBuffer tx{tx_buf, static_cast<u32>(message.size()),
                               false};
  EXPECT_TRUE(driver.vq(virtio::console::kTxQueue)
                  .add_chain(std::span{&tx, 1}, 2)
                  .has_value());
  driver.vq(virtio::console::kTxQueue).publish();
  driver.notify(virtio::console::kTxQueue);
  while (driver.vq(virtio::console::kTxQueue).harvest_used()) {
  }
  const auto completion =
      driver.vq(virtio::console::kRxQueue).harvest_used();
  if (!completion.has_value()) {
    return {};
  }
  return memory.read_bytes(rx_buf, completion->written);
}

// §2.7.7: without VIRTIO_F_EVENT_IDX the device ignores used_event (the
// test driver leaves it at 0, which would suppress all but the first
// interrupt) and interrupts on every used-ring update, since avail.flags
// stays 0; nor does it write avail_event.
TEST_F(ControllerFixture, DeclinedEventIdxInterruptsOnEveryCompletion) {
  driver->initialize(2, 16,
                     virtio::FeatureSet{1ull << virtio::feature::kRingEventIdx});
  ASSERT_FALSE(
      device->negotiated_features().has(virtio::feature::kRingEventIdx));
  const Bytes message{'e', 'v', 't'};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(console_echo(*driver, memory, message), message) << i;
  }
  const u32 rx_vector = driver->queue_vector(virtio::console::kRxQueue);
  u32 rx_interrupts = 0;
  while (irq.pending(rx_vector)) {
    irq.consume(rx_vector);
    ++rx_interrupts;
  }
  EXPECT_EQ(rx_interrupts, 6u);
  const auto& tx = driver->vq(virtio::console::kTxQueue);
  EXPECT_EQ(testing_support::read_le16(memory, tx.addresses().used +
                             virtio::avail_event_offset(tx.size())),
            0);
}

TEST_F(ControllerFixture, ResponseDroppedWithoutRxBuffers) {
  driver->initialize(2);
  const HostAddr tx_buf = memory.allocate(16);
  memory.fill(tx_buf, 1, 8);
  const virtio::ChainBuffer tx{tx_buf, 8, false};
  driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, 1);
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);
  // No RX interrupt (nothing posted), but the TX chain was consumed.
  EXPECT_FALSE(irq.pending(driver->queue_vector(virtio::console::kRxQueue)));
  EXPECT_EQ(device->frames_processed(), 1u);
}

TEST_F(ControllerFixture, MultipleChainsPerNotifyAllProcessed) {
  driver->initialize(2);
  // Post plenty of RX buffers.
  std::vector<HostAddr> rx_bufs;
  for (u64 i = 0; i < 4; ++i) {
    rx_bufs.push_back(memory.allocate(64));
    const virtio::ChainBuffer rx{rx_bufs.back(), 64, true};
    driver->vq(virtio::console::kRxQueue).add_chain(std::span{&rx, 1}, i);
  }
  driver->vq(virtio::console::kRxQueue).publish();

  // Publish 3 TX chains, then a single notify.
  for (u64 i = 0; i < 3; ++i) {
    const HostAddr buf = memory.allocate(8);
    memory.fill(buf, static_cast<u8>(i + 1), 8);
    const virtio::ChainBuffer tx{buf, 8, false};
    driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, i);
  }
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);

  EXPECT_EQ(device->frames_processed(), 3u);
  int completions = 0;
  while (driver->vq(virtio::console::kRxQueue).harvest_used().has_value()) {
    ++completions;
  }
  EXPECT_EQ(completions, 3);
}

TEST_F(ControllerFixture, IsrIsReadToClear) {
  driver->initialize(2);
  const HostAddr rx_buf = memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  driver->vq(virtio::console::kRxQueue).add_chain(std::span{&rx, 1}, 1);
  driver->vq(virtio::console::kRxQueue).publish();
  const HostAddr tx_buf = memory.allocate(8);
  const virtio::ChainBuffer tx{tx_buf, 8, false};
  driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, 2);
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);

  EXPECT_EQ(driver->read_isr() & virtio::isr::kQueueInterrupt, 1);
  EXPECT_EQ(driver->read_isr(), 0);  // cleared by the read
}

TEST_F(ControllerFixture, DeviceConfigExposesConsoleGeometry) {
  using virtio::console::ConsoleConfigLayout;
  EXPECT_EQ(driver->device_cfg16(ConsoleConfigLayout::kColsOffset), 80);
  EXPECT_EQ(driver->device_cfg16(ConsoleConfigLayout::kRowsOffset), 25);
}

TEST_F(ControllerFixture, DeviceConfigWritesAreIgnored) {
  driver->initialize(2);
  expect_config_writes_ignored(*device, sim::SimTime{});

  const HostAddr rx_buf = memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  driver->vq(virtio::console::kRxQueue).add_chain(std::span{&rx, 1}, 1);
  driver->vq(virtio::console::kRxQueue).publish();
  const HostAddr tx_buf = memory.allocate(8);
  const Bytes message{'c', 'f', 'g'};
  memory.write(tx_buf, message);
  const virtio::ChainBuffer tx{tx_buf, 3, false};
  driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, 2);
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);
  const auto completion =
      driver->vq(virtio::console::kRxQueue).harvest_used();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(memory.read_bytes(rx_buf, 3), message);
}

TEST(DeviceConfigWrites, NetAndBlkIgnoreThemAndKeepServing) {
  TestbedOptions options;
  options.attach_blk = true;
  VirtioNetTestbed bed{options};
  expect_config_writes_ignored(bed.device(), bed.thread().now());
  expect_config_writes_ignored(bed.blk_device(), bed.thread().now());

  EXPECT_TRUE(bed.udp_round_trip(Bytes(64, 0x3c)).ok);
  const Bytes sector(virtio::blk::kSectorBytes, 0x5e);
  ASSERT_TRUE(bed.blk_driver().write_sectors(bed.thread(), 0, sector));
  Bytes back(sector.size());
  ASSERT_TRUE(bed.blk_driver().read_sectors(bed.thread(), 0, back));
  EXPECT_EQ(back, sector);
}

TEST_F(ControllerFixture, PerfCountersRecordNotifyAndIrq) {
  driver->initialize(2);
  const HostAddr rx_buf = memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  driver->vq(virtio::console::kRxQueue).add_chain(std::span{&rx, 1}, 1);
  driver->vq(virtio::console::kRxQueue).publish();
  const HostAddr tx_buf = memory.allocate(8);
  const virtio::ChainBuffer tx{tx_buf, 8, false};
  driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, 2);
  driver->vq(virtio::console::kTxQueue).publish();
  driver->notify(virtio::console::kTxQueue);

  const auto interval = device->counters().interval("notify", "irq_sent");
  EXPECT_GT(interval.micros(), 3.0);   // several DMA round trips
  EXPECT_LT(interval.micros(), 60.0);
  EXPECT_EQ(interval.picos() % 8000, 0);  // 8 ns counter resolution
}

// ---- driver-written split rings the FSM must survive ---------------------------

/// A console device with 16-entry queues whose TX ring the test writes
/// by hand, fetching chains with the batched policy when `batched`.
struct HostileRingBed {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  ConsoleDeviceLogic console;
  std::optional<VirtioDeviceFunction> device;
  hostos::InterruptController irq;
  std::optional<TestDriver> driver;

  explicit HostileRingBed(bool batched) {
    ControllerConfig config;
    config.policy.batched_chain_fetch = batched;
    device.emplace(console, config);
    rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    rc.attach(*device);
    device->connect(rc);
    EXPECT_EQ(pcie::enumerate_bus(rc).size(), 1u);
    driver.emplace(rc, *device, irq);
    driver->initialize(2);
  }

  /// Write TX descriptor `index` behind the driver's back.
  void write_desc(u16 index, HostAddr addr, u32 len, u16 flags, u16 next) {
    const HostAddr d = driver->vq(virtio::console::kTxQueue).addresses().desc +
                       virtio::desc_offset(index);
    memory.write_le64(d + virtio::kDescAddrOffset, addr);
    memory.write_le32(d + virtio::kDescLenOffset, len);
    memory.write_le16(d + virtio::kDescFlagsOffset, flags);
    memory.write_le16(d + virtio::kDescNextOffset, next);
  }

  /// Publish `head` in avail slot 0 of the fresh TX ring and kick: the
  /// device must latch DEVICE_NEEDS_RESET, and a reset plus re-init must
  /// bring the echo back.
  void expect_reset_then_recovery(u16 head) {
    const HostAddr avail =
        driver->vq(virtio::console::kTxQueue).addresses().avail;
    memory.write_le16(avail + virtio::avail_entry_offset(0), head);
    memory.write_le16(avail + virtio::kAvailIdxOffset, 1);
    driver->notify(virtio::console::kTxQueue);
    EXPECT_NE(device->device_status() & virtio::status::kDeviceNeedsReset, 0);
    EXPECT_EQ(device->device_errors(), 1u);
    EXPECT_EQ(device->frames_processed(), 0u);

    driver->initialize(2);
    const Bytes message{'o', 'k'};
    EXPECT_EQ(console_echo(*driver, memory, message), message);
  }
};

class HostileSplitRing : public ::testing::TestWithParam<bool> {};

TEST_P(HostileSplitRing, AvailHeadPastTheQueue) {
  HostileRingBed bed{GetParam()};
  bed.expect_reset_then_recovery(200);
}

TEST_P(HostileSplitRing, NextPastTheQueue) {
  HostileRingBed bed{GetParam()};
  bed.write_desc(0, bed.memory.allocate(8), 8, virtio::descflags::kNext, 99);
  bed.expect_reset_then_recovery(0);
}

// One readable 512 KiB buffer: each descriptor is sane, but the chain's
// readable bytes exceed the 128 KiB staging BRAM they are copied into.
TEST_P(HostileSplitRing, ReadableBytesPastTheBram) {
  HostileRingBed bed{GetParam()};
  constexpr u32 kLen = 512 * 1024;
  bed.write_desc(0, bed.memory.allocate(kLen), kLen, 0, 0);
  bed.expect_reset_then_recovery(0);
}

INSTANTIATE_TEST_SUITE_P(FetchPolicies, HostileSplitRing, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "batched" : "walk";
                         });

// A self-linked descriptor under the batched policy: its walk has the
// same length guard as the plain walk.
TEST(HostileSplitRingBatched, SelfLinkedChain) {
  HostileRingBed bed{true};
  bed.write_desc(0, bed.memory.allocate(8), 8, virtio::descflags::kNext, 0);
  bed.expect_reset_then_recovery(0);
}

// ---- policy ablation behaviours --------------------------------------------------

struct PolicyFixture : ::testing::Test {
  sim::Duration echo_latency(ControllerPolicy policy) {
    TestbedOptions options;
    options.noise.enabled = false;
    options.controller.policy = policy;
    VirtioNetTestbed bed{options};
    const Bytes payload(256, 5);
    sim::Duration total{};
    for (int i = 0; i < 10; ++i) {
      const auto rt = bed.udp_round_trip(payload);
      EXPECT_TRUE(rt.ok);
      total += rt.hardware;
    }
    return total;
  }
};

TEST_F(PolicyFixture, BatchedChainFetchWinsOnMultiDescriptorChains) {
  // Batching pays off when chains span adjacent descriptors: one burst
  // read replaces two. (On the single-descriptor chains the virtio-net
  // driver posts, batching costs a few wire-nanoseconds instead — so
  // this is measured at the QueueEngine level with a 2-buffer chain.)
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  NetDeviceLogic logic;
  VirtioDeviceFunction endpoint{logic};
  rc.attach(endpoint);
  endpoint.connect(rc);
  ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u);

  const virtio::FeatureSet features{1ull << virtio::feature::kVersion1};
  virtio::VirtqueueDriver drv{memory, 16, features};
  const std::array<virtio::ChainBuffer, 2> chain{
      virtio::ChainBuffer{memory.allocate(16), 16, false},
      virtio::ChainBuffer{memory.allocate(16), 16, true},
  };
  ASSERT_TRUE(drv.add_chain(chain, 1).has_value());
  drv.publish();

  const auto consume_time = [&](bool batch) {
    ControllerPolicy policy;
    policy.batched_chain_fetch = batch;
    QueueEngine engine{rc.dma_port(endpoint), policy};
    engine.configure(drv.addresses(), drv.size(), features, sim::SimTime{});
    FetchedChain fetched;
    const sim::SimTime done = engine.consume_chain(sim::SimTime{}, fetched);
    EXPECT_EQ(fetched.descriptors.size(), 2u);
    return done;
  };
  EXPECT_LT(consume_time(true), consume_time(false));
}

// A batched fetch that lands on an indirect head reads the table from the
// burst's copy of the head, then runs the same post-fetch checks as every
// other chain: a corrupted descriptor read still fails the bounds check.
TEST(QueueEngineFetch, BatchedIndirectHeadStillRunsDescCorruptCheck) {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  NetDeviceLogic logic;
  VirtioDeviceFunction endpoint{logic};
  rc.attach(endpoint);
  endpoint.connect(rc);
  ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u);

  const virtio::FeatureSet features{
      (1ull << virtio::feature::kVersion1) |
      (1ull << virtio::feature::kRingIndirectDesc)};
  virtio::VirtqueueDriver drv{memory, 16, features};
  const std::array<virtio::ChainBuffer, 2> chain{
      virtio::ChainBuffer{memory.allocate(16), 16, false},
      virtio::ChainBuffer{memory.allocate(16), 16, true},
  };
  ASSERT_TRUE(drv.add_chain_indirect(chain, 1).has_value());
  drv.publish();

  const auto consume = [&](fault::FaultPlane* fault) {
    ControllerPolicy policy;
    policy.batched_chain_fetch = true;
    QueueEngine engine{rc.dma_port(endpoint), policy, fault};
    engine.configure(drv.addresses(), drv.size(), features, sim::SimTime{});
    FetchedChain fetched;
    (void)engine.consume_chain(sim::SimTime{}, fetched);
    return fetched;
  };
  const FetchedChain clean = consume(nullptr);
  EXPECT_TRUE(clean.via_indirect);
  EXPECT_FALSE(clean.error);
  EXPECT_EQ(clean.descriptors.size(), 2u);

  fault::FaultConfig config;
  config.set_rate(fault::FaultClass::kDescCorrupt, 1.0);
  fault::FaultPlane plane{config};
  const FetchedChain corrupt = consume(&plane);
  EXPECT_TRUE(corrupt.via_indirect);
  EXPECT_TRUE(corrupt.error);
  EXPECT_EQ(plane.injected(fault::FaultClass::kDescCorrupt), 1u);
}

TEST_F(PolicyFixture, TrustingCachedCreditsReducesHardwareTime) {
  ControllerPolicy trusting;
  trusting.trust_cached_credits = true;
  ControllerPolicy conservative;
  EXPECT_LT(echo_latency(trusting), echo_latency(conservative));
}

}  // namespace
}  // namespace vfpga::core
