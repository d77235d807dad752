// Packed virtqueue tests (VirtIO 1.2 §2.8): layout predicates, driver
// ring operations across wrap boundaries, the device's one-read-per-
// buffer consumption, and the end-to-end packed-ring echo through the
// full testbed — including the transaction-economics comparison against
// the split format.
#include <gtest/gtest.h>

#include <array>

#include "vfpga/core/testbed.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/packed_device.hpp"
#include "vfpga/virtio/packed_driver.hpp"

namespace vfpga::virtio {
namespace {

namespace pk = packed;

TEST(PackedLayout, OwnershipPredicates) {
  // Fresh ring (flags 0): not available at wrap=true, not used either.
  EXPECT_FALSE(pk::is_available(0, true));
  EXPECT_FALSE(pk::is_used(0, true));
  // Driver writes avail at wrap=true: AVAIL=1, USED=0.
  EXPECT_TRUE(pk::is_available(pk::avail_flags(true), true));
  EXPECT_FALSE(pk::is_available(pk::avail_flags(true), false));
  EXPECT_FALSE(pk::is_used(pk::avail_flags(true), true));
  // Device marks used at wrap=true: AVAIL=1, USED=1.
  EXPECT_TRUE(pk::is_used(pk::used_flags(true), true));
  EXPECT_FALSE(pk::is_available(pk::used_flags(true), true));
  // Second lap (wrap=false): avail means AVAIL=0, USED=1.
  EXPECT_TRUE(pk::is_available(pk::avail_flags(false), false));
  EXPECT_TRUE(pk::is_used(pk::used_flags(false), false));
}

struct PackedFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  FeatureSet features{(1ull << feature::kVersion1) |
                      (1ull << feature::kRingPacked)};
  /// Where the device side consumes chains into.
  std::vector<Descriptor> descriptors;

  /// Endpoint stub so the device side has a bus-mastering port.
  struct Stub : pcie::Function {
    Stub() {
      config().define_bar(0, pcie::BarDefinition{4096, false, false});
      config().write16(pcie::cfg::kCommand,
                       pcie::cfg::kCommandMemoryEnable |
                           pcie::cfg::kCommandBusMaster);
    }
    u64 bar_read(u32, BarOffset, u32, sim::SimTime) override { return 0; }
    void bar_write(u32, BarOffset, u64, u32, sim::SimTime) override {}
  } stub;

  PackedVirtqueueDevice make_device(const PackedVirtqueueDriver& drv) {
    PackedVirtqueueDevice vq{rc.dma_port(stub)};
    vq.configure(drv.ring_addresses(), drv.size(), features);
    return vq;
  }
};

TEST_F(PackedFixture, AddChainEncodesOwnershipAndId) {
  PackedVirtqueueDriver drv{memory, 8, features};
  EXPECT_EQ(drv.free_descriptors(), 8);
  EXPECT_TRUE(drv.avail_wrap_counter());

  const HostAddr buf = memory.allocate(64);
  const std::array<ChainBuffer, 2> chain{
      ChainBuffer{buf, 32, false},
      ChainBuffer{buf + 32, 32, true},
  };
  const auto id = drv.add_chain(chain, 77);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(drv.free_descriptors(), 6);

  const HostAddr ring = drv.ring_addresses().desc;
  // Slot 0: readable, chained, available at wrap=1.
  const u16 f0 = memory.read_le16(ring + pk::kDescFlagsOffset);
  EXPECT_TRUE(pk::is_available(f0, true));
  EXPECT_NE(f0 & pk::flags::kNext, 0);
  EXPECT_EQ(f0 & pk::flags::kWrite, 0);
  EXPECT_EQ(memory.read_le64(ring + pk::kDescAddrOffset), buf);
  // Slot 1: writable, last in chain, carries the buffer id.
  const u16 f1 =
      memory.read_le16(ring + pk::desc_offset(1) + pk::kDescFlagsOffset);
  EXPECT_NE(f1 & pk::flags::kWrite, 0);
  EXPECT_EQ(f1 & pk::flags::kNext, 0);
  EXPECT_EQ(memory.read_le16(ring + pk::desc_offset(1) + pk::kDescIdOffset),
            *id);
}

TEST_F(PackedFixture, DeviceConsumesAndCompletesThroughDma) {
  PackedVirtqueueDriver drv{memory, 8, features};
  auto dev = make_device(drv);

  // Nothing available on a fresh ring.
  auto peek = dev.peek_available(sim::SimTime{});
  EXPECT_FALSE(peek.value);

  const HostAddr buf = memory.allocate(64);
  memory.fill(buf, 0x3d, 64);
  const ChainBuffer cb{buf, 64, false};
  const auto id = drv.add_chain(std::span{&cb, 1}, 42);
  drv.publish();

  peek = dev.peek_available(peek.done);
  ASSERT_TRUE(peek.value);
  auto chain = dev.consume_chain(peek.done, descriptors);
  EXPECT_EQ(chain.value.id, *id);
  EXPECT_EQ(chain.value.descriptor_count, 1);
  ASSERT_EQ(descriptors.size(), 1u);
  EXPECT_EQ(descriptors[0].addr, buf);

  dev.push_used(chain.value, 0, chain.done);
  ASSERT_TRUE(drv.used_pending());
  const auto completion = drv.harvest();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->token, 42u);
  EXPECT_EQ(drv.free_descriptors(), 8);
}

TEST_F(PackedFixture, SingleBufferCostsOneReadVsSplitsThree) {
  // The packed format's PCIe economics: availability check + descriptor
  // arrive in ONE DMA read. Compare against the split ring's
  // avail-idx + avail-entry + descriptor sequence.
  PackedVirtqueueDriver packed_drv{memory, 8, features};
  auto packed_dev = make_device(packed_drv);
  const ChainBuffer cb{memory.allocate(64), 64, false};
  packed_drv.add_chain(std::span{&cb, 1}, 1);
  packed_drv.publish();
  const auto peek = packed_dev.peek_available(sim::SimTime{});
  const auto chain = packed_dev.consume_chain(peek.done, descriptors);
  const sim::Duration packed_cost = chain.done - sim::SimTime{};

  const FeatureSet split_features{1ull << feature::kVersion1};
  VirtqueueDriver split_drv{memory, 8, split_features};
  VirtqueueDevice split_dev{rc.dma_port(stub)};
  split_dev.configure(split_drv.addresses(), split_drv.size(),
                      split_features);
  split_drv.add_chain(std::span{&cb, 1}, 1);
  split_drv.publish();
  const auto idx = split_dev.fetch_avail_idx(sim::SimTime{});
  const auto entry = split_dev.fetch_avail_entry(0, idx.done);
  const auto split_chain =
      split_dev.fetch_chain(entry.value, entry.done, descriptors);
  const sim::Duration split_cost = split_chain.done - sim::SimTime{};

  EXPECT_LT(packed_cost.picos() * 2, split_cost.picos());
}

TEST_F(PackedFixture, RingRecyclesAcrossManyWraps) {
  PackedVirtqueueDriver drv{memory, 4, features};
  auto dev = make_device(drv);
  for (u64 i = 0; i < 23; ++i) {  // several wraps of a 4-deep ring
    const HostAddr buf = memory.allocate(16);
    memory.write_u8(buf, static_cast<u8>(i));
    const ChainBuffer cb{buf, 16, false};
    ASSERT_TRUE(drv.add_chain(std::span{&cb, 1}, i).has_value()) << i;
    drv.publish();

    const auto peek = dev.peek_available(sim::SimTime{});
    ASSERT_TRUE(peek.value) << i;
    auto chain = dev.consume_chain(peek.done, descriptors);
    Bytes data(1);
    memory.read(descriptors[0].addr, data);
    EXPECT_EQ(data[0], static_cast<u8>(i));
    dev.push_used(chain.value, 0, chain.done);

    const auto completion = drv.harvest();
    ASSERT_TRUE(completion.has_value()) << i;
    EXPECT_EQ(completion->token, i);
  }
}

TEST_F(PackedFixture, ChainSpanningWrapBoundary) {
  PackedVirtqueueDriver drv{memory, 4, features};
  auto dev = make_device(drv);
  // Consume 3 singles to park the cursor at slot 3.
  for (u64 i = 0; i < 3; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    drv.add_chain(std::span{&cb, 1}, i);
    const auto peek = dev.peek_available(sim::SimTime{});
    ASSERT_TRUE(peek.value);
    auto chain = dev.consume_chain(peek.done, descriptors);
    dev.push_used(chain.value, 0, chain.done);
    ASSERT_TRUE(drv.harvest().has_value());
  }
  // A 2-descriptor chain now spans slots 3 and 0 (wrap inside the chain).
  const std::array<ChainBuffer, 2> chain{
      ChainBuffer{memory.allocate(8), 8, false},
      ChainBuffer{memory.allocate(8), 8, true},
  };
  const auto id = drv.add_chain(chain, 99);
  ASSERT_TRUE(id.has_value());
  const auto peek = dev.peek_available(sim::SimTime{});
  ASSERT_TRUE(peek.value);
  auto consumed = dev.consume_chain(peek.done, descriptors);
  EXPECT_EQ(consumed.value.descriptor_count, 2);
  EXPECT_EQ(consumed.value.id, *id);
  dev.push_used(consumed.value, 8, consumed.done);
  const auto completion = drv.harvest();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->token, 99u);
  EXPECT_EQ(drv.free_descriptors(), 4);
}

TEST_F(PackedFixture, InterruptSuppressionFlags) {
  PackedVirtqueueDriver drv{memory, 8, features};
  auto dev = make_device(drv);
  drv.enable_interrupts();
  EXPECT_EQ(dev.read_driver_event_flags(sim::SimTime{}).value,
            pk::event::kEnable);
  drv.disable_interrupts();
  EXPECT_EQ(dev.read_driver_event_flags(sim::SimTime{}).value,
            pk::event::kDisable);
  // Kick suppression the other way.
  dev.write_device_event_flags(pk::event::kDisable, sim::SimTime{});
  EXPECT_FALSE(drv.should_kick());
  dev.write_device_event_flags(pk::event::kEnable, sim::SimTime{});
  EXPECT_TRUE(drv.should_kick());
}

// ---- end-to-end through the full testbed ------------------------------------------

TEST(PackedEndToEnd, UdpEchoOverPackedRings) {
  core::TestbedOptions options;
  options.use_packed_rings = true;
  core::VirtioNetTestbed bed{options};
  ASSERT_TRUE(bed.driver().using_packed_rings());

  Bytes payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i * 3);
  }
  for (int i = 0; i < 200; ++i) {
    payload[0] = static_cast<u8>(i);
    const auto rt = bed.udp_round_trip(payload);
    ASSERT_TRUE(rt.ok) << i;
  }
  EXPECT_EQ(bed.net_logic().udp_echoes(), 200u);
}

TEST(PackedEndToEnd, PackedHardwareTimeBeatsSplit) {
  core::TestbedOptions split_options;
  split_options.noise.enabled = false;
  core::TestbedOptions packed_options = split_options;
  packed_options.use_packed_rings = true;

  core::VirtioNetTestbed split_bed{split_options};
  core::VirtioNetTestbed packed_bed{packed_options};
  const Bytes payload(256, 5);
  sim::Duration split_hw{};
  sim::Duration packed_hw{};
  for (int i = 0; i < 50; ++i) {
    const auto split_rt = split_bed.udp_round_trip(payload);
    const auto packed_rt = packed_bed.udp_round_trip(payload);
    ASSERT_TRUE(split_rt.ok && packed_rt.ok);
    split_hw += split_rt.hardware;
    packed_hw += packed_rt.hardware;
  }
  // Fewer ring DMA round trips per echo: the packed controller should
  // save several microseconds of hardware time.
  EXPECT_LT(packed_hw.micros() + 50 * 3.0, split_hw.micros());
}

TEST(PackedEndToEnd, DeterministicAcrossRuns) {
  core::TestbedOptions options;
  options.use_packed_rings = true;
  options.seed = 4242;
  std::vector<i64> first;
  {
    core::VirtioNetTestbed bed{options};
    Bytes payload(128, 1);
    for (int i = 0; i < 10; ++i) {
      first.push_back(bed.udp_round_trip(payload).total.picos());
    }
  }
  core::VirtioNetTestbed bed{options};
  Bytes payload(128, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(bed.udp_round_trip(payload).total.picos(), first[i]);
  }
}

}  // namespace
}  // namespace vfpga::virtio
