// Edge cases of the zero-copy scatter-gather datapath, on both ring
// formats: zero-length segments, chains that exceed the queue and
// indirect tables with out-of-bounds geometry.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "support/chain_io.hpp"
#include "support/mem_read.hpp"
#include "vfpga/core/packed_queue_engine.hpp"
#include "vfpga/core/queue_engine.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/ids.hpp"
#include "vfpga/virtio/packed_driver.hpp"
#include "vfpga/virtio/ring_layout.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace vfpga::virtio {
namespace {

namespace pk = packed;

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

struct SplitSgFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  DummyFunction fn;
  FeatureSet features{(1ull << feature::kVersion1) |
                      (1ull << feature::kRingIndirectDesc)};

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

  /// Publish `head` in the next avail slot straight into ring memory
  /// (for heads of descriptor tables the driver would never build).
  void publish_raw_head(const VirtqueueDriver& drv, u16 head) {
    const HostAddr avail = drv.addresses().avail;
    const u16 idx = testing_support::read_le16(memory, avail + kAvailIdxOffset);
    memory.write_le16(
        avail + avail_entry_offset(static_cast<u16>(idx % drv.size())), head);
    memory.write_le16(avail + kAvailIdxOffset, static_cast<u16>(idx + 1));
  }
};

TEST_F(SplitSgFixture, ZeroLengthWritableSegmentRoundTrips) {
  // A zero-length writable segment in the middle of a chain is legal
  // (length is only a capacity): the device must skip it when
  // scattering, not write through it or bail out.
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr empty_buf = memory.allocate(8);
  const HostAddr data_buf = memory.allocate(64);
  const std::array<ChainBuffer, 3> chain{
      ChainBuffer{memory.allocate(8), 8, true},
      ChainBuffer{empty_buf, 0, true},
      ChainBuffer{data_buf, 64, true},
  };
  const auto head = drv.add_chain(chain, 7);
  ASSERT_TRUE(head.has_value());
  drv.publish();

  core::FetchedChain fetched;
  const sim::SimTime t = engine->consume_chain(sim::SimTime{}, fetched);
  ASSERT_FALSE(fetched.error);
  ASSERT_EQ(fetched.descriptors.size(), 3u);
  EXPECT_EQ(fetched.descriptors[1].len, 0u);

  Bytes message(72, 0xab);
  const auto scatter = testing_support::scatter(
      rc.dma_port(fn), fetched.descriptors, message, t);
  EXPECT_EQ(scatter.written, 72u);
  engine->complete_chain(fetched, scatter.written, scatter.issuer_free, true);

  const auto completion = drv.harvest_used();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->written, 72u);
  EXPECT_EQ(memory.read_bytes(data_buf, 64), Bytes(64, 0xab));
  EXPECT_EQ(drv.free_descriptors(), 8);
}

TEST_F(SplitSgFixture, ZeroLengthSegmentInsideIndirectTable) {
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr data_buf = memory.allocate(32);
  const std::array<ChainBuffer, 3> chain{
      ChainBuffer{memory.allocate(8), 8, true},
      ChainBuffer{memory.allocate(8), 0, true},
      ChainBuffer{data_buf, 32, true},
  };
  const auto head = drv.add_chain_indirect(chain, 8);
  ASSERT_TRUE(head.has_value());
  drv.publish();

  core::FetchedChain fetched;
  const sim::SimTime t = engine->consume_chain(sim::SimTime{}, fetched);
  ASSERT_FALSE(fetched.error);
  EXPECT_TRUE(fetched.via_indirect);
  ASSERT_EQ(fetched.descriptors.size(), 3u);

  Bytes message(40, 0x5d);
  const auto scatter = testing_support::scatter(
      rc.dma_port(fn), fetched.descriptors, message, t);
  EXPECT_EQ(scatter.written, 40u);
  engine->complete_chain(fetched, scatter.written, scatter.issuer_free, true);
  const auto completion = drv.harvest_used();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(memory.read_bytes(data_buf, 32), Bytes(32, 0x5d));
}

TEST_F(SplitSgFixture, ChainLongerThanQueueIsRefusedByDriver) {
  auto drv = make_driver(4);
  std::vector<ChainBuffer> chain(5, ChainBuffer{memory.allocate(8), 8, false});
  EXPECT_FALSE(drv.add_chain(chain, 9).has_value());
  EXPECT_EQ(drv.free_descriptors(), 4);
  // A chain that fits the queue but not the current free list is also
  // refused without consuming descriptors.
  std::vector<ChainBuffer> fits(3, ChainBuffer{memory.allocate(8), 8, false});
  ASSERT_TRUE(drv.add_chain(fits, 1).has_value());
  EXPECT_FALSE(drv.add_chain(fits, 2).has_value());
  EXPECT_EQ(drv.free_descriptors(), 1);
}

TEST_F(SplitSgFixture, DeviceFlagsEndlessChainAsError) {
  // A descriptor whose NEXT points back at itself models a corrupted
  // table: the walk must terminate with the error flag, not spin.
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr d0 = drv.addresses().desc + desc_offset(0);
  memory.write_le64(d0 + kDescAddrOffset, memory.allocate(8));
  memory.write_le32(d0 + kDescLenOffset, 8);
  memory.write_le16(d0 + kDescFlagsOffset, descflags::kNext);
  memory.write_le16(d0 + kDescNextOffset, 0);
  publish_raw_head(drv, 0);

  core::FetchedChain fetched;
  (void)engine->consume_chain(sim::SimTime{}, fetched);
  EXPECT_TRUE(fetched.error);
}

TEST_F(SplitSgFixture, IndirectTableWithBadGeometryIsError) {
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr table = memory.allocate(kDescSize * 16, kDescAlign);
  const HostAddr d0 = drv.addresses().desc + desc_offset(0);
  memory.write_le64(d0 + kDescAddrOffset, table);
  memory.write_le16(d0 + kDescFlagsOffset, descflags::kIndirect);
  const auto consume = [&] {
    publish_raw_head(drv, 0);
    core::FetchedChain fetched;
    (void)engine->consume_chain(sim::SimTime{}, fetched);
    return fetched;
  };

  // Length not a whole number of descriptor entries.
  memory.write_le32(d0 + kDescLenOffset, kDescSize + 4);
  EXPECT_TRUE(consume().error);
  // Zero-length table.
  memory.write_le32(d0 + kDescLenOffset, 0);
  EXPECT_TRUE(consume().error);
  // More entries than the queue size (§2.7.5.3.1 cap).
  memory.write_le32(d0 + kDescLenOffset,
                    static_cast<u32>(kDescSize * (drv.size() + 1)));
  EXPECT_TRUE(consume().error);
  // Sanity: a one-entry table with the same ring descriptor is fine.
  memory.write_le64(table + kDescAddrOffset, memory.allocate(8));
  memory.write_le32(table + kDescLenOffset, 8);
  memory.write_le16(table + kDescFlagsOffset, 0);
  memory.write_le32(d0 + kDescLenOffset, static_cast<u32>(kDescSize));
  const core::FetchedChain good = consume();
  EXPECT_FALSE(good.error);
  EXPECT_TRUE(good.via_indirect);
}

struct PackedSgFixture : ::testing::Test {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  DummyFunction fn;
  FeatureSet features{(1ull << feature::kVersion1) |
                      (1ull << feature::kRingPacked) |
                      (1ull << feature::kRingIndirectDesc)};

  PackedVirtqueueDriver make_driver(u16 size = 8) {
    return PackedVirtqueueDriver{memory, size, features};
  }
  std::unique_ptr<core::PackedQueueEngine> make_engine(
      const PackedVirtqueueDriver& drv) {
    auto engine = std::make_unique<core::PackedQueueEngine>(rc.dma_port(fn));
    engine->configure(drv.ring_addresses(), drv.size(), features,
                      sim::SimTime{});
    return engine;
  }
  /// Poll for the chain at the avail cursor, then consume it.
  core::FetchedChain poll_and_consume(core::PackedQueueEngine& engine,
                                      sim::SimTime* done = nullptr) {
    const core::Poll poll = engine.poll_available(sim::SimTime{});
    EXPECT_EQ(poll.available, 1);
    core::FetchedChain chain;
    const sim::SimTime t = engine.consume_chain(poll.done, chain);
    if (done != nullptr) {
      *done = t;
    }
    return chain;
  }

  /// Write one raw packed descriptor straight into the ring (for
  /// crafting corrupt geometries the driver would never produce).
  void write_raw(const PackedVirtqueueDriver& drv, u16 slot, u64 addr,
                 u32 len, u16 id, u16 flags) {
    const HostAddr base = drv.ring_addresses().desc + pk::desc_offset(slot);
    memory.write_le64(base + pk::kDescAddrOffset, addr);
    memory.write_le32(base + pk::kDescLenOffset, len);
    memory.write_le16(base + pk::kDescIdOffset, id);
    memory.write_le16(base + pk::kDescFlagsOffset, flags);
  }
};

TEST_F(PackedSgFixture, ZeroLengthWritableSegmentRoundTrips) {
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const std::array<ChainBuffer, 3> chain{
      ChainBuffer{memory.allocate(8), 8, true},
      ChainBuffer{memory.allocate(8), 0, true},
      ChainBuffer{memory.allocate(64), 64, true},
  };
  ASSERT_TRUE(drv.add_chain(chain, 3).has_value());
  drv.publish();

  sim::SimTime t;
  const core::FetchedChain consumed = poll_and_consume(*engine, &t);
  ASSERT_FALSE(consumed.error);
  ASSERT_EQ(consumed.descriptors.size(), 3u);
  EXPECT_EQ(consumed.descriptors[1].len, 0u);

  engine->complete_chain(consumed, 72, t, true);
  const auto completion = drv.harvest();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->token, 3u);
  EXPECT_EQ(completion->written, 72u);
  EXPECT_EQ(drv.free_descriptors(), 8);
}

TEST_F(PackedSgFixture, ChainLongerThanFreeSlotsIsRefusedByDriver) {
  auto drv = make_driver(4);
  std::vector<ChainBuffer> chain(5, ChainBuffer{memory.allocate(8), 8, false});
  EXPECT_FALSE(drv.add_chain(chain, 1).has_value());
  EXPECT_EQ(drv.free_descriptors(), 4);
}

TEST_F(PackedSgFixture, DeviceFlagsEndlessChainAsError) {
  // Every slot claims a continuation: the walk must stop at queue_size
  // with the error flag (a conformant driver can never produce this).
  auto drv = make_driver();
  auto engine = make_engine(drv);
  const HostAddr buf = memory.allocate(8);
  for (u16 slot = 0; slot < drv.size(); ++slot) {
    write_raw(drv, slot, buf, 8, slot,
              static_cast<u16>(pk::flags::kNext | pk::avail_flags(true)));
  }
  EXPECT_TRUE(poll_and_consume(*engine).error);
}

TEST_F(PackedSgFixture, IndirectTableWithBadGeometryIsError) {
  auto drv = make_driver();
  const HostAddr table = memory.allocate(pk::kDescSize * 16, 16);
  const u16 indirect_avail =
      static_cast<u16>(pk::flags::kIndirect | pk::avail_flags(true));

  // Length not a whole number of entries.
  write_raw(drv, 0, table, static_cast<u32>(pk::kDescSize + 4), 0,
            indirect_avail);
  EXPECT_TRUE(poll_and_consume(*make_engine(drv)).error);
  // More entries than the queue size.
  write_raw(drv, 0, table,
            static_cast<u32>(pk::kDescSize * (drv.size() + 1)), 0,
            indirect_avail);
  EXPECT_TRUE(poll_and_consume(*make_engine(drv)).error);
  // INDIRECT combined with NEXT (§2.8.8 forbids chaining them).
  write_raw(drv, 0, table, static_cast<u32>(pk::kDescSize), 0,
            static_cast<u16>(indirect_avail | pk::flags::kNext));
  EXPECT_TRUE(poll_and_consume(*make_engine(drv)).error);
}

}  // namespace
}  // namespace vfpga::virtio
