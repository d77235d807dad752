// Packed virtqueue tests (VirtIO 1.2 §2.8): layout predicates, driver
// ring operations across wrap boundaries, the device's one-read-per-
// buffer consumption, and the end-to-end packed-ring echo through the
// full testbed — including the transaction-economics comparison against
// the split format.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "support/mem_read.hpp"
#include "vfpga/core/packed_queue_engine.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/packed_driver.hpp"

namespace vfpga::virtio {
namespace {

using testing_support::read_le16;
using testing_support::read_le64;

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
  core::FetchedChain fetched;

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

  std::unique_ptr<core::PackedQueueEngine> make_engine(
      const PackedVirtqueueDriver& drv) {
    auto engine =
        std::make_unique<core::PackedQueueEngine>(rc.dma_port(stub));
    engine->configure(drv.ring_addresses(), drv.size(), features,
                      sim::SimTime{});
    return engine;
  }
  /// Poll (which must find a chain), consume into `chain`, and return
  /// when the consume is done.
  sim::SimTime poll_and_consume(core::IQueueEngine& engine) {
    const core::Poll poll = engine.poll_available(sim::SimTime{});
    EXPECT_EQ(poll.available, 1);
    return engine.consume_chain(poll.done, fetched);
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
  const u16 f0 = read_le16(memory, ring + pk::kDescFlagsOffset);
  EXPECT_TRUE(pk::is_available(f0, true));
  EXPECT_NE(f0 & pk::flags::kNext, 0);
  EXPECT_EQ(f0 & pk::flags::kWrite, 0);
  EXPECT_EQ(read_le64(memory, ring + pk::kDescAddrOffset), buf);
  // Slot 1: writable, last in chain, carries the buffer id.
  const u16 f1 =
      read_le16(memory, ring + pk::desc_offset(1) + pk::kDescFlagsOffset);
  EXPECT_NE(f1 & pk::flags::kWrite, 0);
  EXPECT_EQ(f1 & pk::flags::kNext, 0);
  EXPECT_EQ(read_le16(memory, ring + pk::desc_offset(1) + pk::kDescIdOffset),
            *id);
}

TEST_F(PackedFixture, DeviceConsumesAndCompletesThroughDma) {
  PackedVirtqueueDriver drv{memory, 8, features};
  auto engine = make_engine(drv);

  // Nothing available on a fresh ring.
  const core::Poll empty = engine->poll_available(sim::SimTime{});
  EXPECT_EQ(empty.available, 0);

  const HostAddr buf = memory.allocate(64);
  memory.fill(buf, 0x3d, 64);
  const ChainBuffer cb{buf, 64, false};
  const auto id = drv.add_chain(std::span{&cb, 1}, 42);
  drv.publish();

  const core::Poll poll = engine->poll_available(empty.done);
  ASSERT_EQ(poll.available, 1);
  const sim::SimTime t = engine->consume_chain(poll.done, fetched);
  EXPECT_EQ(fetched.handle, *id);
  EXPECT_EQ(fetched.ring_slots, 1);
  ASSERT_EQ(fetched.descriptors.size(), 1u);
  EXPECT_EQ(fetched.descriptors[0].addr, buf);

  engine->complete_chain(fetched, 0, t, true);
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
  auto packed_engine = make_engine(packed_drv);
  const ChainBuffer cb{memory.allocate(64), 64, false};
  packed_drv.add_chain(std::span{&cb, 1}, 1);
  packed_drv.publish();
  const sim::Duration packed_cost =
      poll_and_consume(*packed_engine) - sim::SimTime{};

  const FeatureSet split_features{1ull << feature::kVersion1};
  VirtqueueDriver split_drv{memory, 8, split_features};
  core::QueueEngine split_engine{rc.dma_port(stub), core::ControllerPolicy{}};
  split_engine.configure(split_drv.addresses(), split_drv.size(),
                         split_features, sim::SimTime{});
  split_drv.add_chain(std::span{&cb, 1}, 1);
  split_drv.publish();
  const sim::Duration split_cost =
      poll_and_consume(split_engine) - sim::SimTime{};

  EXPECT_LT(packed_cost.picos() * 2, split_cost.picos());
}

TEST_F(PackedFixture, RingRecyclesAcrossManyWraps) {
  PackedVirtqueueDriver drv{memory, 4, features};
  auto engine = make_engine(drv);
  for (u64 i = 0; i < 23; ++i) {  // several wraps of a 4-deep ring
    const HostAddr buf = memory.allocate(16);
    memory.write_u8(buf, static_cast<u8>(i));
    const ChainBuffer cb{buf, 16, false};
    ASSERT_TRUE(drv.add_chain(std::span{&cb, 1}, i).has_value()) << i;
    drv.publish();

    const sim::SimTime t = poll_and_consume(*engine);
    Bytes data(1);
    memory.read(fetched.descriptors[0].addr, data);
    EXPECT_EQ(data[0], static_cast<u8>(i));
    engine->complete_chain(fetched, 0, t, true);

    const auto completion = drv.harvest();
    ASSERT_TRUE(completion.has_value()) << i;
    EXPECT_EQ(completion->token, i);
  }
}

TEST_F(PackedFixture, ChainSpanningWrapBoundary) {
  PackedVirtqueueDriver drv{memory, 4, features};
  auto engine = make_engine(drv);
  // Consume 3 singles to park the cursor at slot 3.
  for (u64 i = 0; i < 3; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    drv.add_chain(std::span{&cb, 1}, i);
    const sim::SimTime t = poll_and_consume(*engine);
    engine->complete_chain(fetched, 0, t, true);
    ASSERT_TRUE(drv.harvest().has_value());
  }
  // A 2-descriptor chain now spans slots 3 and 0 (wrap inside the chain).
  const std::array<ChainBuffer, 2> buffers{
      ChainBuffer{memory.allocate(8), 8, false},
      ChainBuffer{memory.allocate(8), 8, true},
  };
  const auto id = drv.add_chain(buffers, 99);
  ASSERT_TRUE(id.has_value());
  const sim::SimTime t = poll_and_consume(*engine);
  EXPECT_EQ(fetched.ring_slots, 2);
  EXPECT_EQ(fetched.handle, *id);
  engine->complete_chain(fetched, 8, t, true);
  const auto completion = drv.harvest();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->token, 99u);
  EXPECT_EQ(drv.free_descriptors(), 4);
}

TEST_F(PackedFixture, InterruptSuppressionFlags) {
  PackedVirtqueueDriver drv{memory, 8, features};
  auto engine = make_engine(drv);
  const auto complete_one = [&] {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    drv.add_chain(std::span{&cb, 1}, 1);
    const sim::SimTime t = poll_and_consume(*engine);
    const bool interrupt = engine->complete_chain(fetched, 0, t, true).interrupt;
    EXPECT_TRUE(drv.harvest().has_value());
    return interrupt;
  };
  drv.enable_interrupts();
  EXPECT_TRUE(complete_one());
  drv.disable_interrupts();
  EXPECT_FALSE(complete_one());
  // Kick suppression the other way: configure enables kicks.
  memory.write_le16(drv.ring_addresses().used + pk::event::kFlagsOffset,
                    pk::event::kDisable);
  EXPECT_FALSE(drv.should_kick());
  engine->configure(drv.ring_addresses(), drv.size(), features,
                    sim::SimTime{});
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
