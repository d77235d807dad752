// Split-virtqueue tests: layout constants, driver-side ring operations,
// the device-side queue engine's DMA access, and the driver<->device
// protocol round trip — the core invariant being that both halves agree
// on every byte purely through shared memory.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>

#include "support/chain_io.hpp"
#include "support/mem_read.hpp"
#include "vfpga/core/queue_engine.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/ids.hpp"
#include "vfpga/virtio/ring_layout.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace vfpga::virtio {
namespace {

using testing_support::read_le16;
using testing_support::read_le32;
using testing_support::read_le64;

TEST(RingLayout, SpecSizes) {
  // VirtIO 1.2 §2.7: sizes for a 256-entry queue.
  EXPECT_EQ(desc_table_bytes(256), 4096u);
  EXPECT_EQ(avail_ring_bytes(256), 4u + 512u + 2u);
  EXPECT_EQ(used_ring_bytes(256), 4u + 2048u + 2u);
  EXPECT_EQ(desc_offset(3), 48u);
  EXPECT_EQ(avail_entry_offset(5), 14u);
  EXPECT_EQ(used_entry_offset(5), 44u);
  EXPECT_EQ(used_event_offset(256), 516u);
  EXPECT_EQ(avail_event_offset(256), 2052u);
}

/// Dummy endpoint so the device side has a bus-master DMA port.
class DummyFunction : public pcie::Function {
 public:
  DummyFunction() {
    config().set_ids(0x1af4, 0x1041, 0x1af4, 1);
    config().define_bar(0, pcie::BarDefinition{4096, false, false});
    config().write16(pcie::cfg::kCommand,
                     pcie::cfg::kCommandMemoryEnable |
                         pcie::cfg::kCommandBusMaster);
  }
  u64 bar_read(u32, BarOffset, u32, sim::SimTime) override { return 0; }
  void bar_write(u32, BarOffset, u64, u32, sim::SimTime) override {}
};

struct RingFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  DummyFunction fn;
  FeatureSet features{(1ull << feature::kVersion1) |
                      (1ull << feature::kRingEventIdx)};

  VirtqueueDriver make_driver(u16 size = 8) {
    return VirtqueueDriver{memory, size, features};
  }
  std::unique_ptr<core::QueueEngine> make_engine(
      const VirtqueueDriver& drv, core::ControllerPolicy policy = {}) {
    auto engine =
        std::make_unique<core::QueueEngine>(rc.dma_port(fn), policy);
    engine->configure(drv.addresses(), drv.size(), features, sim::SimTime{});
    return engine;
  }
  /// Consume the next chain and complete it at once with `written`
  /// bytes; returns the interrupt decision.
  bool consume_and_complete(core::QueueEngine& engine, u32 written = 0) {
    core::FetchedChain chain;
    const sim::SimTime t = engine.consume_chain(sim::SimTime{}, chain);
    EXPECT_FALSE(chain.error);
    return engine.complete_chain(chain, written, t, true).interrupt;
  }
};

TEST_F(RingFixture, FreshQueueIsEmptyAndFullyFree) {
  auto drv = make_driver();
  EXPECT_EQ(drv.free_descriptors(), 8);
  EXPECT_EQ(drv.in_flight(), 0);
  EXPECT_FALSE(drv.used_pending());
  // Ring memory is zeroed.
  EXPECT_EQ(read_le16(memory, drv.addresses().avail + kAvailIdxOffset), 0);
  EXPECT_EQ(read_le16(memory, drv.addresses().used + kUsedIdxOffset), 0);
}

TEST_F(RingFixture, AddChainWritesSpecCompliantDescriptors) {
  auto drv = make_driver();
  const HostAddr buf_a = memory.allocate(64);
  const HostAddr buf_b = memory.allocate(128);
  const std::array<ChainBuffer, 2> chain{
      ChainBuffer{buf_a, 64, false},
      ChainBuffer{buf_b, 128, true},
  };
  const auto head = drv.add_chain(chain, /*token=*/42);
  ASSERT_TRUE(head.has_value());

  const HostAddr d0 = drv.addresses().desc + desc_offset(*head);
  EXPECT_EQ(read_le64(memory, d0 + kDescAddrOffset), buf_a);
  EXPECT_EQ(read_le32(memory, d0 + kDescLenOffset), 64u);
  EXPECT_EQ(read_le16(memory, d0 + kDescFlagsOffset), descflags::kNext);
  const u16 next = read_le16(memory, d0 + kDescNextOffset);
  const HostAddr d1 = drv.addresses().desc + desc_offset(next);
  EXPECT_EQ(read_le64(memory, d1 + kDescAddrOffset), buf_b);
  EXPECT_EQ(read_le16(memory, d1 + kDescFlagsOffset), descflags::kWrite);
  EXPECT_EQ(drv.free_descriptors(), 6);
}

TEST_F(RingFixture, PublishIsTheVisibilityPoint) {
  auto drv = make_driver();
  const ChainBuffer buf{memory.allocate(16), 16, false};
  drv.add_chain(std::span{&buf, 1}, 1);
  // Not yet visible: avail.idx still 0.
  EXPECT_EQ(read_le16(memory, drv.addresses().avail + kAvailIdxOffset), 0);
  EXPECT_EQ(drv.publish(), 1);
  EXPECT_EQ(read_le16(memory, drv.addresses().avail + kAvailIdxOffset), 1);
  EXPECT_EQ(drv.publish(), 0);  // idempotent with nothing pending
}

TEST_F(RingFixture, ChainTooLargeIsRefusedWithoutSideEffects) {
  auto drv = make_driver(4);
  std::vector<ChainBuffer> chain(5, ChainBuffer{memory.allocate(8), 8, false});
  EXPECT_FALSE(drv.add_chain(chain, 9).has_value());
  EXPECT_EQ(drv.free_descriptors(), 4);
}

TEST_F(RingFixture, DeviceSeesDriverDescriptorsThroughDma) {
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr buf = memory.allocate(32);
  memory.fill(buf, 0x77, 32);
  const ChainBuffer cb{buf, 32, false};
  const auto head = drv.add_chain(std::span{&cb, 1}, 5);
  drv.publish();

  const core::Poll poll = engine->poll_available(sim::SimTime{});
  EXPECT_EQ(poll.available, 1);
  EXPECT_GT(poll.done.nanos(), 0.0);

  core::FetchedChain chain;
  const sim::SimTime fetched = engine->consume_chain(poll.done, chain);
  EXPECT_EQ(chain.handle, *head);
  EXPECT_FALSE(chain.error);
  ASSERT_EQ(chain.descriptors.size(), 1u);
  EXPECT_EQ(chain.descriptors[0].addr, buf);
  EXPECT_EQ(chain.descriptors[0].len, 32u);

  Bytes payload;
  const auto done = testing_support::gather(rc.dma_port(fn),
                                            chain.descriptors, payload,
                                            fetched);
  EXPECT_EQ(payload, Bytes(32, 0x77));
  EXPECT_GT(done, fetched);
}

TEST_F(RingFixture, FullProtocolRoundTrip) {
  auto drv = make_driver();
  auto engine = make_engine(drv);

  // Driver exposes one writable buffer (an RX buffer).
  const HostAddr rx_buf = memory.allocate(64);
  const ChainBuffer cb{rx_buf, 64, true};
  const auto head = drv.add_chain(std::span{&cb, 1}, 1234);
  drv.publish();

  // Device consumes it, scatters a payload, pushes a used entry.
  core::FetchedChain chain;
  const sim::SimTime fetched = engine->consume_chain(sim::SimTime{}, chain);
  EXPECT_EQ(chain.handle, *head);
  const Bytes message{'v', 'i', 'r', 't', 'i', 'o'};
  const auto scatter = testing_support::scatter(
      rc.dma_port(fn), chain.descriptors, message, fetched);
  EXPECT_EQ(scatter.written, message.size());
  engine->complete_chain(chain, scatter.written, scatter.issuer_free, true);

  // Driver harvests: token, length, bytes all round-trip.
  ASSERT_TRUE(drv.used_pending());
  const auto completion = drv.harvest_used();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->token, 1234u);
  EXPECT_EQ(completion->written, message.size());
  EXPECT_EQ(completion->head, *head);
  EXPECT_EQ(memory.read_bytes(rx_buf, message.size()), message);
  EXPECT_EQ(drv.free_descriptors(), 8);
  EXPECT_FALSE(drv.harvest_used().has_value());
}

TEST_F(RingFixture, DescriptorsRecycleThroughFullRing) {
  auto drv = make_driver(4);
  auto engine = make_engine(drv);
  // Push 3x the ring size of single-buffer chains through.
  for (u64 i = 0; i < 12; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    const auto head = drv.add_chain(std::span{&cb, 1}, i);
    ASSERT_TRUE(head.has_value()) << i;
    drv.publish();
    consume_and_complete(*engine);
    const auto completion = drv.harvest_used();
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->token, i);
  }
}

TEST_F(RingFixture, EventIdxKickSuppression) {
  auto drv = make_driver();
  auto engine = make_engine(drv);

  // Device asks to be kicked for the first publish.
  engine->post_drain_update(0, sim::SimTime{});
  const ChainBuffer cb{memory.allocate(8), 8, false};
  drv.add_chain(std::span{&cb, 1}, 1);
  drv.publish();
  EXPECT_TRUE(drv.should_kick());

  // Device has NOT advanced avail_event: the next publish is already
  // covered, so no kick needed.
  drv.add_chain(std::span{&cb, 1}, 2);
  drv.publish();
  EXPECT_FALSE(drv.should_kick());

  // Device catches up and requests the next one.
  engine->post_drain_update(2, sim::SimTime{});
  drv.add_chain(std::span{&cb, 1}, 3);
  drv.publish();
  EXPECT_TRUE(drv.should_kick());
}

TEST_F(RingFixture, UsedEventControlsDeviceVisibleField) {
  auto drv = make_driver();
  drv.set_used_event(7);
  EXPECT_EQ(
      read_le16(memory, drv.addresses().avail + used_event_offset(drv.size())),
      7);
  // The device reads 7: only the update that moves used.idx past it
  // (the eighth, 7 -> 8) interrupts.
  auto engine = make_engine(drv);
  for (u64 i = 0; i < 9; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    ASSERT_TRUE(drv.add_chain(std::span{&cb, 1}, i).has_value());
    drv.publish();
    EXPECT_EQ(consume_and_complete(*engine), i == 7) << i;
    ASSERT_TRUE(drv.harvest_used().has_value());
  }
}

TEST_F(RingFixture, BatchedDescriptorFetchMatchesSingles) {
  auto drv = make_driver();
  const std::array<ChainBuffer, 2> chain{
      ChainBuffer{memory.allocate(16), 16, false},
      ChainBuffer{memory.allocate(16), 16, true},
  };
  drv.add_chain(chain, 1);
  drv.publish();
  core::ControllerPolicy batched;
  batched.batched_chain_fetch = true;
  core::FetchedChain burst;
  const auto burst_done =
      make_engine(drv, batched)->consume_chain(sim::SimTime{}, burst);
  core::FetchedChain singles;
  const auto singles_done =
      make_engine(drv)->consume_chain(sim::SimTime{}, singles);
  ASSERT_EQ(burst.descriptors.size(), 2u);
  ASSERT_EQ(singles.descriptors.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(burst.descriptors[i].addr, singles.descriptors[i].addr);
    EXPECT_EQ(burst.descriptors[i].len, singles.descriptors[i].len);
    EXPECT_EQ(burst.descriptors[i].flags, singles.descriptors[i].flags);
  }
  // One burst read is cheaper than a head read plus a continuation read.
  EXPECT_LT(burst_done.picos(), singles_done.picos());
}

// Property sweep over queue sizes: in-flight + free == size always.
class RingSizeProperty : public ::testing::TestWithParam<u16> {};

TEST_P(RingSizeProperty, ConservationOfDescriptors) {
  mem::HostMemory memory;
  const u16 size = GetParam();
  VirtqueueDriver drv{memory, size,
                      FeatureSet{1ull << feature::kVersion1}};
  sim::Xoshiro256 rng{size};
  std::vector<u64> outstanding;
  for (int step = 0; step < 200; ++step) {
    EXPECT_EQ(drv.free_descriptors() + drv.in_flight(), size);
    const bool add = rng.uniform01() < 0.6;
    if (add && drv.free_descriptors() >= 2) {
      const std::array<ChainBuffer, 2> chain{
          ChainBuffer{memory.allocate(8), 8, false},
          ChainBuffer{memory.allocate(8), 8, true},
      };
      const auto head = drv.add_chain(chain, static_cast<u64>(step));
      ASSERT_TRUE(head.has_value());
      drv.publish();
      outstanding.push_back(static_cast<u64>(step));
    } else if (!outstanding.empty()) {
      // Complete the oldest outstanding chain, bypassing the device:
      // emulate its used-ring write directly.
      const u16 slot = static_cast<u16>(
          read_le16(memory, drv.addresses().used + kUsedIdxOffset) % size);
      // Find the head for the oldest token by scanning the avail ring is
      // overkill; instead complete in publish order which matches the
      // avail order for this workload.
      const u16 avail_slot = static_cast<u16>(
          (read_le16(memory, drv.addresses().used + kUsedIdxOffset)) % size);
      (void)avail_slot;
      const u16 head = read_le16(
          memory,
          drv.addresses().avail +
          avail_entry_offset(static_cast<u16>(
              read_le16(memory, drv.addresses().used + kUsedIdxOffset) %
              size)));
      memory.write_le32(drv.addresses().used + used_entry_offset(slot), head);
      memory.write_le32(drv.addresses().used + used_entry_offset(slot) + 4,
                        0);
      memory.write_le16(
          drv.addresses().used + kUsedIdxOffset,
          static_cast<u16>(
              read_le16(memory, drv.addresses().used + kUsedIdxOffset) + 1));
      const auto completion = drv.harvest_used();
      ASSERT_TRUE(completion.has_value());
      EXPECT_EQ(completion->token, outstanding.front());
      outstanding.erase(outstanding.begin());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QueueSizes, RingSizeProperty,
                         ::testing::Values(u16{2}, u16{4}, u16{16}, u16{64},
                                           u16{256}));


TEST_F(RingFixture, SurvivesU16IndexWraparound) {
  // avail.idx and used.idx are free-running 16-bit counters; a size-4
  // queue crosses the 65536 wrap after 16384 laps. Push enough chains
  // through that both counters wrap and verify tokens stay exact.
  auto drv = make_driver(4);
  auto engine = make_engine(drv);
  constexpr u64 kChains = 70'000;  // > 65536: full counter wrap
  for (u64 i = 0; i < kChains; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    ASSERT_TRUE(drv.add_chain(std::span{&cb, 1}, i).has_value()) << i;
    drv.publish();
    ASSERT_EQ(engine->poll_available(sim::SimTime{}).available, 1) << i;
    consume_and_complete(*engine);
    const auto completion = drv.harvest_used();
    ASSERT_TRUE(completion.has_value()) << i;
    ASSERT_EQ(completion->token, i) << i;
  }
  EXPECT_EQ(drv.free_descriptors(), 4);
}

TEST_F(RingFixture, EventIdxSuppressionCorrectAcrossWrap) {
  // The §2.7.10 wrap-safe comparison must hold when used_event and
  // used.idx straddle the 16-bit boundary.
  auto drv = make_driver(4);
  auto engine = make_engine(drv);
  // Drive the counters close to the wrap point.
  for (u64 i = 0; i < 65'530; ++i) {
    const ChainBuffer cb{memory.allocate(8), 8, false};
    ASSERT_TRUE(drv.add_chain(std::span{&cb, 1}, i).has_value());
    drv.publish();
    consume_and_complete(*engine);
    ASSERT_TRUE(drv.harvest_used().has_value());
  }
  // Device asks for a kick exactly at the pre-wrap index...
  engine->post_drain_update(static_cast<u16>(65'530), sim::SimTime{});
  const ChainBuffer cb{memory.allocate(8), 8, false};
  drv.add_chain(std::span{&cb, 1}, 1);
  drv.publish();  // avail idx 65531: passes event 65530
  EXPECT_TRUE(drv.should_kick());
  // ...and for one past the wrap: publishes at 65532..65535 suppressed,
  // the one that lands on 0 (post-wrap) kicks.
  engine->post_drain_update(static_cast<u16>(65'535), sim::SimTime{});
  // Publishes at idx 65532..65535 are suppressed; the publish whose idx
  // wraps to 0 passes event 65535 and kicks.
  for (int i = 0; i < 5; ++i) {
    consume_and_complete(*engine);
    drv.harvest_used();
    drv.add_chain(std::span{&cb, 1}, 2);
    drv.publish();
    if (i < 4) {
      EXPECT_FALSE(drv.should_kick()) << i;
    } else {
      EXPECT_TRUE(drv.should_kick()) << i;  // idx wrapped to 0
    }
  }
}

}  // namespace
}  // namespace vfpga::virtio
