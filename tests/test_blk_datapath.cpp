// Blk storage-datapath edge cases: zero-length I/O, seg_max/size_max
// enforcement on both sides of the bus, error isolation (IOERR status
// bytes without DEVICE_NEEDS_RESET), FLUSH write-barrier ordering
// against simulated power loss, packed rings, multi-queue completion, the polled completion path (direct and hosted
// on a reactor), and the three blk fault classes through the recovery
// paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "support/test_driver.hpp"
#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/harness/blk_bench.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/blk_defs.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga {
namespace {

using virtio::blk::kSectorBytes;
using virtio::blk::RequestType;

Bytes pattern(u64 bytes, u8 salt) {
  Bytes data(bytes);
  for (u64 i = 0; i < bytes; ++i) {
    data[i] = static_cast<u8>(i * 13 + salt);
  }
  return data;
}

// ---- raw chains against the device (no cost model, no blk driver) ---------

/// One data descriptor in a hand-built request chain.
struct Seg {
  u32 len = 0;
  bool writable = false;
  u8 fill = 0;
};

/// The blk personality behind the controller with the cost-model-free
/// MMIO test driver, so tests can build arbitrary [header][data...]
/// [status] chains — including malformed ones the sector API could
/// never express.
struct RawBlkHarness {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::BlkDeviceLogic blk;
  std::optional<core::VirtioDeviceFunction> device;
  hostos::InterruptController irq;
  std::optional<testing_support::TestDriver> driver;
  /// The writable data segments of the last request, in chain order.
  Bytes read_data;

  explicit RawBlkHarness(core::BlkDeviceConfig config) : blk(config) {
    device.emplace(blk, core::ControllerConfig{});
    rc.set_irq_sink(
        [this](u32 data, sim::SimTime at) { irq.deliver(data, at); });
    rc.attach(*device);
    device->connect(rc);
    EXPECT_EQ(pcie::enumerate_bus(rc).size(), 1u);
    driver.emplace(rc, *device, irq);
    driver->initialize(1);
  }

  /// Submit [header][segs...][status]; returns the status byte the
  /// device wrote (0xaa poison means it never wrote one).
  u8 submit(RequestType type, u64 sector, const std::vector<Seg>& segs,
            u32 reserved = 0) {
    using virtio::blk::kRequestHeaderBytes;
    const HostAddr hdr_addr = memory.allocate(kRequestHeaderBytes);
    virtio::blk::RequestHeader hdr;
    hdr.type = type;
    hdr.sector = sector;
    hdr.reserved = reserved;
    std::array<u8, kRequestHeaderBytes> raw{};
    hdr.encode(raw);
    memory.write(hdr_addr, raw);

    std::vector<virtio::ChainBuffer> chain;
    chain.push_back({hdr_addr, kRequestHeaderBytes, false});
    for (const Seg& s : segs) {
      const HostAddr addr = memory.allocate(s.len);
      if (!s.writable) {
        memory.write(addr, Bytes(s.len, s.fill));
      }
      chain.push_back({addr, s.len, s.writable});
    }
    const HostAddr status_addr = memory.allocate(1);
    memory.write_u8(status_addr, 0xaa);  // poison
    chain.push_back({status_addr, 1, true});

    auto& vq = driver->vq(virtio::blk::kRequestQueue);
    EXPECT_TRUE(vq.add_chain(chain, 1).has_value());
    vq.publish();
    driver->notify(virtio::blk::kRequestQueue);
    EXPECT_TRUE(vq.harvest_used().has_value());
    read_data.clear();
    for (const virtio::ChainBuffer& b : chain) {
      if (b.device_writable && b.addr != status_addr) {
        const Bytes got = memory.read_bytes(b.addr, b.len);
        read_data.insert(read_data.end(), got.begin(), got.end());
      }
    }
    return memory.read_u8(status_addr);
  }

  [[nodiscard]] bool needs_reset() const {
    return (device->device_status() & virtio::status::kDeviceNeedsReset) != 0;
  }
};

TEST(BlkRawChain, ZeroLengthReadAndWriteSucceed) {
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = 64}};
  // [header][status] only: a 0-byte IN and a 0-byte OUT are both valid
  // requests that transfer nothing and complete OK.
  EXPECT_EQ(h.submit(RequestType::In, 3, {}), virtio::blk::kStatusOk);
  EXPECT_EQ(h.blk.reads(), 1u);
  EXPECT_EQ(h.submit(RequestType::Out, 3, {}), virtio::blk::kStatusOk);
  EXPECT_EQ(h.blk.writes(), 1u);
  EXPECT_EQ(h.blk.errors(), 0u);
}

TEST(BlkRawChain, NonzeroReservedFieldRefused) {
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = 64}};
  EXPECT_EQ(h.submit(RequestType::In, 0, {{kSectorBytes, true}},
                     /*reserved=*/7),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.blk.errors(), 1u);
}

TEST(BlkRawChain, SegMaxViolatingChainRefusedWithoutReset) {
  RawBlkHarness h{
      core::BlkDeviceConfig{.capacity_sectors = 64, .seg_max = 2}};
  // 3 data segments against seg_max = 2: refused with a status byte.
  EXPECT_EQ(h.submit(RequestType::In, 0,
                     {{kSectorBytes, true},
                      {kSectorBytes, true},
                      {kSectorBytes, true}}),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.blk.errors(), 1u);
  EXPECT_FALSE(h.needs_reset());
  // A compliant chain right after completes normally.
  EXPECT_EQ(
      h.submit(RequestType::In, 0, {{kSectorBytes, true}, {kSectorBytes, true}}),
      virtio::blk::kStatusOk);
  EXPECT_EQ(h.blk.reads(), 1u);
}

TEST(BlkRawChain, SizeMaxViolatingSegmentRefused) {
  RawBlkHarness h{
      core::BlkDeviceConfig{.capacity_sectors = 64, .size_max = 1024}};
  EXPECT_EQ(h.submit(RequestType::In, 0, {{2048, true}}),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.submit(RequestType::Out, 0, {{2048, false, 0x11}}),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.blk.errors(), 2u);
  EXPECT_FALSE(h.needs_reset());
  EXPECT_EQ(h.submit(RequestType::Out, 0, {{1024, false, 0x11}}),
            virtio::blk::kStatusOk);
}

TEST(BlkRawChain, OutOfCapacityIsIoErrorNotReset) {
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = 64}};
  // Start past the end, and straddling the end.
  EXPECT_EQ(h.submit(RequestType::In, 64, {{kSectorBytes, true}}),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.submit(RequestType::In, 63, {{2 * kSectorBytes, true}}),
            virtio::blk::kStatusIoErr);
  EXPECT_EQ(h.blk.errors(), 2u);
  EXPECT_FALSE(h.needs_reset());
  // The device keeps serving: the very next in-range request is OK,
  // and a sector never written reads as zeroes.
  EXPECT_EQ(h.submit(RequestType::In, 63, {{kSectorBytes, true}}),
            virtio::blk::kStatusOk);
  EXPECT_EQ(h.read_data, Bytes(kSectorBytes, 0));
}

TEST(BlkRawChain, SectorPastCapacityIsRefused) {
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = 64}};
  ASSERT_EQ(h.submit(RequestType::Out, 0, {{kSectorBytes, false, 0x3c}}),
            virtio::blk::kStatusOk);
  // 2^55 sectors is 2^64 bytes: scaled before the check, it would wrap
  // onto byte 0. Just past the end must be refused the same way.
  for (const u64 sector : {u64{1} << 55, u64{65}}) {
    SCOPED_TRACE(sector);
    EXPECT_EQ(h.submit(RequestType::Out, sector, {{kSectorBytes, false, 0xee}}),
              virtio::blk::kStatusIoErr);
    EXPECT_EQ(h.submit(RequestType::In, sector + 1, {{kSectorBytes, true}}),
              virtio::blk::kStatusIoErr);
  }
  EXPECT_EQ(h.blk.writes(), 1u);
  EXPECT_FALSE(h.needs_reset());
  EXPECT_EQ(h.submit(RequestType::In, 0, {{kSectorBytes, true}}),
            virtio::blk::kStatusOk);
  EXPECT_EQ(h.read_data, Bytes(kSectorBytes, 0x3c));
}

TEST(BlkRawChain, ShortHeaderRefused) {
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = 64}};
  // A chain whose readable part is shorter than the 16-byte header.
  const HostAddr hdr_addr = h.memory.allocate(4);
  h.memory.write(hdr_addr, Bytes(4, 0));
  const HostAddr status_addr = h.memory.allocate(1);
  h.memory.write_u8(status_addr, 0xaa);
  std::vector<virtio::ChainBuffer> chain{{hdr_addr, 4, false},
                                         {status_addr, 1, true}};
  auto& vq = h.driver->vq(virtio::blk::kRequestQueue);
  ASSERT_TRUE(vq.add_chain(chain, 1).has_value());
  vq.publish();
  h.driver->notify(virtio::blk::kRequestQueue);
  ASSERT_TRUE(vq.harvest_used().has_value());
  EXPECT_EQ(h.memory.read_u8(status_addr), virtio::blk::kStatusIoErr);
  EXPECT_FALSE(h.needs_reset());
}

// ---- the full stack: driver + transport + device on the testbed -----------

core::TestbedOptions blk_options(u64 seed) {
  core::TestbedOptions options;
  options.seed = seed;
  options.attach_blk = true;
  options.blk.capacity_sectors = 256;
  return options;
}

TEST(BlkDatapath, FlushBarrierOrdersWritesAcrossPowerLoss) {
  core::VirtioNetTestbed bed{blk_options(0xb10c1)};
  hostos::HostThread& t = bed.thread();
  const Bytes durable_data = pattern(kSectorBytes, 0x21);
  const Bytes volatile_data = pattern(kSectorBytes, 0x84);

  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 2, durable_data));
  ASSERT_TRUE(bed.blk_driver().flush(t));
  EXPECT_EQ(bed.blk_logic().dirty_sectors(), 0u);
  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 3, volatile_data));
  EXPECT_EQ(bed.blk_logic().dirty_sectors(), 1u);
  // Overwrite the flushed sector, and write a block no FLUSH ever saw.
  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 2, volatile_data));
  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 100, volatile_data));
  EXPECT_EQ(bed.blk_logic().dirty_sectors(), 3u);

  // Crash: the flushed bytes survive, every post-barrier write is gone.
  bed.blk_logic().simulate_power_loss();
  Bytes sector2(kSectorBytes, 0xff);
  Bytes sector3(kSectorBytes, 0xff);
  Bytes sector100(kSectorBytes, 0xff);
  ASSERT_TRUE(bed.blk_driver().read_sectors(t, 2, sector2));
  ASSERT_TRUE(bed.blk_driver().read_sectors(t, 3, sector3));
  ASSERT_TRUE(bed.blk_driver().read_sectors(t, 100, sector100));
  EXPECT_EQ(sector2, durable_data);
  EXPECT_EQ(sector3, Bytes(kSectorBytes, 0));
  EXPECT_EQ(sector100, Bytes(kSectorBytes, 0));
  EXPECT_EQ(bed.blk_logic().dirty_sectors(), 0u);
}

// FLUSH and power loss visit the dirty sectors, not the whole device: on
// a 2^20-sector device, each of a run of write + FLUSH pairs drains one
// sector, and the barrier still holds at the far ends of the device.
TEST(BlkDatapath, FlushDrainsTheDirtySectorsOfALargeDevice) {
  constexpr u64 kSectors = u64{1} << 20;
  RawBlkHarness h{core::BlkDeviceConfig{.capacity_sectors = kSectors}};
  const std::array<u64, 4> flushed = {0, 77, kSectors / 2, kSectors - 1};
  for (std::size_t k = 0; k < flushed.size(); ++k) {
    ASSERT_EQ(h.submit(RequestType::Out, flushed[k],
                       {{kSectorBytes, false, static_cast<u8>(k + 1)}}),
              virtio::blk::kStatusOk);
  }
  EXPECT_EQ(h.blk.dirty_sectors(), flushed.size());
  ASSERT_EQ(h.submit(RequestType::Flush, 0, {}), virtio::blk::kStatusOk);
  EXPECT_EQ(h.blk.dirty_sectors(), 0u);
  for (u64 i = 0; i < 256; ++i) {
    const u64 sector = 1000 + i * 4093;
    ASSERT_EQ(h.submit(RequestType::Out, sector, {{kSectorBytes, false, 9}}),
              virtio::blk::kStatusOk);
    ASSERT_EQ(h.submit(RequestType::Flush, 0, {}), virtio::blk::kStatusOk);
  }
  EXPECT_EQ(h.blk.flushes(), 257u);
  EXPECT_EQ(h.blk.dirty_high_water(), flushed.size());
  // Written after the last barrier: lost with the power.
  ASSERT_EQ(h.submit(RequestType::Out, kSectors - 2,
                     {{kSectorBytes, false, 0x77}}),
            virtio::blk::kStatusOk);
  h.blk.simulate_power_loss();
  EXPECT_EQ(h.blk.dirty_sectors(), 0u);
  for (std::size_t k = 0; k < flushed.size(); ++k) {
    ASSERT_EQ(h.submit(RequestType::In, flushed[k], {{kSectorBytes, true}}),
              virtio::blk::kStatusOk);
    EXPECT_EQ(h.read_data, Bytes(kSectorBytes, static_cast<u8>(k + 1)))
        << "sector " << flushed[k];
  }
  ASSERT_EQ(h.submit(RequestType::In, kSectors - 2, {{kSectorBytes, true}}),
            virtio::blk::kStatusOk);
  EXPECT_EQ(h.read_data, Bytes(kSectorBytes, 0));
}

TEST(BlkDatapath, AsyncFlushCompletesAfterPrecedingWrites) {
  core::VirtioNetTestbed bed{blk_options(0xb10c2)};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();

  const Bytes data = pattern(kSectorBytes, 0x42);
  for (u64 s = 10; s < 13; ++s) {
    ASSERT_TRUE(drv.submit_write(t, 0, s, data).has_value());
  }
  ASSERT_TRUE(drv.submit_flush(t, 0).has_value());
  while (drv.in_flight(0) > 0) {
    ASSERT_TRUE(drv.wait_interrupt(t, 0));
  }
  u32 popped = 0;
  while (auto c = drv.pop_completion(0)) {
    EXPECT_EQ(c->status, virtio::blk::kStatusOk);
    ++popped;
  }
  EXPECT_EQ(popped, 4u);
  // The queue is serial, so the flush ran after every write it trailed:
  // all three sectors are in the durable layer.
  EXPECT_EQ(bed.blk_logic().dirty_sectors(), 0u);
  const Bytes durable = bed.blk_logic().durable_storage();
  for (u64 s = 10; s < 13; ++s) {
    const ConstByteSpan got =
        ConstByteSpan{durable}.subspan(s * kSectorBytes, kSectorBytes);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
  }
}

TEST(BlkDatapath, PackedRingRoundTrip) {
  core::TestbedOptions options = blk_options(0xb10c3);
  options.use_packed_rings = true;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();
  ASSERT_TRUE(
      bed.blk_driver().negotiated().has(virtio::feature::kRingPacked));

  const Bytes data = pattern(4 * kSectorBytes, 0x77);
  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 8, data));
  Bytes readback(data.size(), 0);
  ASSERT_TRUE(bed.blk_driver().read_sectors(t, 8, readback));
  EXPECT_EQ(readback, data);
  // 4 KiB at a sector off the 8-sector grid spans two store pages.
  const Bytes straddling = pattern(8 * kSectorBytes, 0x19);
  ASSERT_TRUE(bed.blk_driver().write_sectors(t, 13, straddling));
  readback.assign(straddling.size(), 0);
  ASSERT_TRUE(bed.blk_driver().read_sectors(t, 13, readback));
  EXPECT_EQ(readback, straddling);
  EXPECT_TRUE(bed.blk_driver().flush(t));
}

TEST(BlkDatapath, MultiQueueCompletesPerQueue) {
  core::TestbedOptions options = blk_options(0xb10c4);
  options.blk.num_queues = 2;
  options.blk_driver.requested_queues = 2;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();

  ASSERT_EQ(drv.active_queues(), 2u);
  EXPECT_NE(drv.queue_vector(0), drv.queue_vector(1));

  const Bytes data = pattern(kSectorBytes, 0x55);
  ASSERT_TRUE(drv.submit_write(t, 1, 20, data).has_value());
  ASSERT_TRUE(drv.wait_interrupt(t, 1));
  const auto c = drv.pop_completion(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, virtio::blk::kStatusOk);
  // The blocking API stays on queue 0 and is unaffected.
  ASSERT_TRUE(drv.write_sectors(t, 21, data));
  EXPECT_EQ(bed.blk_logic().writes(), 2u);
}

TEST(BlkDatapath, PolledQueueNeverArmsItsVector) {
  core::VirtioNetTestbed bed{blk_options(0xb10c5)};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();
  drv.set_polled(0, true);

  ASSERT_TRUE(drv.submit_read(t, 0, 5, kSectorBytes).has_value());
  ASSERT_TRUE(drv.wait_polled(t, 0));
  const auto c = drv.pop_completion(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, virtio::blk::kStatusOk);
  EXPECT_GE(c->completed_at, c->submitted_at);
  EXPECT_FALSE(bed.irq().pending(drv.queue_vector(0)));
}

TEST(BlkDatapath, ReactorSpinsDryWindowsToTheNextCompletion) {
  // The completion poller notes each not-yet-visible completion, so a
  // dry walk spins straight to it: a request costs about one iteration
  // that finds its completion and one that spins, not one per loop
  // cost of waiting.
  harness::BlkBenchConfig config;
  const harness::BlkCellResult r = harness::run_blk_cell(
      config, harness::BlkCompletionMode::kReactorPolled, 4096, 16);
  EXPECT_EQ(r.ops, config.ops_per_cell);
  EXPECT_EQ(r.failures, 0u);
  const u64 requests = u64{config.warmup_ops} + config.ops_per_cell;
  EXPECT_LE(r.reactor_iterations, 4 * requests);
  EXPECT_GT(r.reactor_dry_windows, 0u);
  EXPECT_LT(r.reactor_dry_time, r.span);
}

TEST(BlkDatapath, DriverRefusesUnsplittableRequests) {
  core::TestbedOptions options = blk_options(0xb10c6);
  options.blk.seg_max = 1;
  options.blk.size_max = 512;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();
  ASSERT_EQ(drv.seg_max(), 1u);
  ASSERT_EQ(drv.size_max(), 512u);

  // 1024 bytes would need two 512-byte segments against seg_max = 1:
  // the driver refuses host-side instead of sending a violating chain.
  EXPECT_FALSE(drv.write_sectors(t, 0, pattern(2 * kSectorBytes, 0x13)));
  EXPECT_GE(drv.rejected_oversize(), 1u);
  // A request that fits the envelope still flows.
  EXPECT_TRUE(drv.write_sectors(t, 0, pattern(kSectorBytes, 0x13)));
}

// ---- fault classes through the recovery paths ------------------------------

TEST(BlkFaults, HeaderCorruptSurfacesAsIoError) {
  core::TestbedOptions options = blk_options(0xfa011);
  options.fault.set_rate(fault::FaultClass::kBlkHeaderCorrupt, 1.0);
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();

  const Bytes data = pattern(kSectorBytes, 0x31);
  EXPECT_FALSE(bed.blk_driver().write_sectors(t, 1, data));
  EXPECT_GE(bed.blk_logic().header_faults(), 1u);
  ASSERT_NE(bed.fault_plane(), nullptr);
  bed.fault_plane()->set_armed(false);
  EXPECT_TRUE(bed.blk_driver().write_sectors(t, 1, data));
}

TEST(BlkFaults, LostInterruptRecoversByPolling) {
  core::TestbedOptions options = blk_options(0xfa012);
  options.fault.set_rate(fault::FaultClass::kBlkIrqLost, 1.0);
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();

  // Every completion MSI is dropped; the driver's visibility fallback
  // must still complete the request — no hang, counted as a recovery.
  const Bytes data = pattern(kSectorBytes, 0x47);
  EXPECT_TRUE(bed.blk_driver().write_sectors(t, 6, data));
  EXPECT_GE(bed.blk_driver().irq_recoveries(), 1u);
  Bytes readback(kSectorBytes, 0);
  EXPECT_TRUE(bed.blk_driver().read_sectors(t, 6, readback));
  EXPECT_EQ(readback, data);
}

TEST(BlkFaults, BackingTimeoutCompletesWithIoError) {
  core::TestbedOptions options = blk_options(0xfa013);
  options.fault.set_rate(fault::FaultClass::kBlkBackingTimeout, 1.0);
  options.blk.backing_timeout_cycles = 10'000;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();

  const sim::SimTime before = t.now();
  EXPECT_FALSE(bed.blk_driver().write_sectors(t, 2, pattern(kSectorBytes, 1)));
  EXPECT_GE(bed.blk_logic().timeout_faults(), 1u);
  // The stall is charged: the failed op took at least the device-internal
  // deadline (10k cycles at 8 ns).
  EXPECT_GE((t.now() - before).picos(), i64{10'000} * 8000);
  bed.fault_plane()->set_armed(false);
  EXPECT_TRUE(bed.blk_driver().write_sectors(t, 2, pattern(kSectorBytes, 1)));
}

}  // namespace
}  // namespace vfpga
