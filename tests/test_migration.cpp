// Snapshot/restore tests: state-io substrate safety, the perf-counter
// bank's state section, crash-consistent round trips on both ring
// formats (including a snapshot taken with a reply still unharvested
// and one taken under an armed fault plane), and rejection of
// version-skewed, corrupted and hostile images.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "support/test_driver.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/harness/fault_campaign.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/migrate/snapshot.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/blk_defs.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga {
namespace {

using migrate::RestoreStatus;

// ---- state-io substrate ---------------------------------------------------

/// One field of every kind StateIo transfers.
struct AllFields {
  u8 a = 0;
  u16 b = 0;
  u32 c = 0;
  u64 d = 0;
  bool e = false;
  double f = 0;
  sim::SimTime at{};
  sim::Duration span{};
  virtio::FeatureSet features{};
  std::array<u8, 3> raw{};
  Bytes blob;
  std::optional<u16> maybe;
  std::optional<sim::SimTime> never;
  u16 slot = 0;
  std::vector<u32> items;

  void transfer(migrate::StateIo& io) {
    io.u8(a);
    io.u16(b);
    io.u32(c);
    io.u64(d);
    io.boolean(e);
    io.f64(f);
    io.time(at);
    io.duration(span);
    io.features(features);
    io.bytes(raw);
    io.blob(blob);
    io.optional(maybe);
    io.optional(never);
    io.expect<u16>(0x7777);
    io.index(slot, 8);
    items.resize(io.count<u32>(items.size(), 4));
    for (u32& item : items) {
      io.u32(item);
    }
  }
  bool operator==(const AllFields&) const = default;
};

TEST(StateIo, PrimitiveRoundTrip) {
  migrate::StateWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_i64(-42);
  w.put_bool(true);
  w.put_f64(3.25);
  w.put_time(sim::SimTime{777});
  w.put_duration(sim::Duration{-9});
  const Bytes payload{1, 2, 3};
  w.put_blob(payload);

  migrate::StateReader r{w.buffer()};
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_time().picos(), 777);
  EXPECT_EQ(r.get_duration().picos(), -9);
  EXPECT_EQ(r.get_blob(), payload);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);

  // StateIo: the same field list saves and loads, in StateWriter's
  // encoding.
  AllFields source;
  source.a = 0xab;
  source.b = 0x1234;
  source.c = 0xdeadbeef;
  source.d = 0x0123456789abcdefull;
  source.e = true;
  source.f = 3.25;
  source.at = sim::SimTime{777};
  source.span = sim::Duration{-9};
  source.features = virtio::FeatureSet{1ull << 33 | 1};
  source.raw = {7, 8, 9};
  source.blob = payload;
  source.maybe = 0x4242;
  source.slot = 7;
  source.items = {10, 20, 30};
  migrate::StateWriter saved;
  migrate::StateIo save{saved};
  EXPECT_FALSE(save.loading());
  source.transfer(save);

  migrate::StateWriter expected;
  expected.put_u8(0xab);
  expected.put_u16(0x1234);
  expected.put_u32(0xdeadbeef);
  expected.put_u64(0x0123456789abcdefull);
  expected.put_bool(true);
  expected.put_f64(3.25);
  expected.put_time(sim::SimTime{777});
  expected.put_duration(sim::Duration{-9});
  expected.put_u64(1ull << 33 | 1);
  expected.put_bytes(source.raw);
  expected.put_blob(payload);
  expected.put_bool(true);
  expected.put_u16(0x4242);
  expected.put_bool(false);
  expected.put_time(sim::SimTime{});
  expected.put_u16(0x7777);
  expected.put_u16(7);
  expected.put_u32(3);
  for (u32 item : source.items) {
    expected.put_u32(item);
  }
  EXPECT_EQ(saved.buffer(), expected.buffer());

  AllFields restored;
  restored.never = sim::SimTime{5};  // absent in the image: cleared
  restored.items = {1, 2, 3, 4};
  migrate::StateReader loaded{saved.buffer()};
  migrate::StateIo load{loaded};
  EXPECT_TRUE(load.loading());
  restored.transfer(load);
  EXPECT_FALSE(load.failed());
  EXPECT_EQ(loaded.remaining(), 0u);
  EXPECT_EQ(restored, source);
}

/// Save `source`, let `poison` rewrite the image, and load it into a
/// fresh AllFields; returns the loaded fields and whether the reader
/// failed.
std::pair<AllFields, bool> load_poisoned(AllFields source,
                                         void (*poison)(Bytes&)) {
  migrate::StateWriter w;
  migrate::StateIo save{w};
  source.transfer(save);
  Bytes image = w.take();
  poison(image);
  AllFields restored;
  migrate::StateReader r{image};
  migrate::StateIo load{r};
  restored.transfer(load);
  return {restored, load.failed()};
}

// Offsets into an AllFields image with an empty blob and 2 items.
constexpr std::size_t kExpectAt = 1 + 2 + 4 + 8 + 1 + 8 + 8 + 8 + 8 + 3 + 8 +
                                  3 + 9;
constexpr std::size_t kSlotAt = kExpectAt + 2;
constexpr std::size_t kCountAt = kSlotAt + 2;

AllFields two_items() {
  AllFields fields;
  fields.items = {5, 6};
  return fields;
}

TEST(StateIo, ValidImageLoads) {
  const auto [restored, failed] =
      load_poisoned(two_items(), [](Bytes&) {});
  EXPECT_FALSE(failed);
  EXPECT_EQ(restored, two_items());
}

TEST(StateIo, MismatchedExpectFailsReader) {
  const auto [restored, failed] = load_poisoned(
      two_items(), [](Bytes& image) { image[kExpectAt] ^= 1; });
  EXPECT_TRUE(failed);
}

TEST(StateIo, OutOfRangeIndexFailsReader) {
  const auto [restored, failed] = load_poisoned(
      two_items(), [](Bytes& image) { image[kSlotAt] = 8; });
  EXPECT_TRUE(failed);
}

TEST(StateIo, OverLongCountFailsWithoutAllocating) {
  // Past what the stream holds: 2^32 - 1 elements in 8 bytes.
  const auto [huge, huge_failed] =
      load_poisoned(two_items(), [](Bytes& image) {
        for (std::size_t i = 0; i < 4; ++i) {
          image[kCountAt + i] = 0xff;
        }
      });
  EXPECT_TRUE(huge_failed);
  EXPECT_EQ(huge.items.capacity(), 0u);

  // Within the stream but past the caller's bound of 4.
  const auto [over, over_failed] = load_poisoned(
      two_items(), [](Bytes& image) { image[kCountAt] = 5; });
  EXPECT_TRUE(over_failed);
  EXPECT_EQ(over.items.capacity(), 0u);
}

TEST(StateIo, SectionsNestAndSkipUnreadRemainder) {
  migrate::StateWriter w;
  w.begin_section(7);
  w.put_u32(1);
  w.put_u32(2);  // a field a newer minor revision added
  w.end_section();
  w.put_u16(0x55aa);

  migrate::StateReader r{w.buffer()};
  ASSERT_TRUE(r.enter_section(7));
  EXPECT_EQ(r.get_u32(), 1u);
  r.exit_section();  // skips the unread second field
  EXPECT_EQ(r.get_u16(), 0x55aa);
  EXPECT_FALSE(r.failed());
}

TEST(StateIo, ReaderNeverOverruns) {
  migrate::StateWriter w;
  w.put_u16(0xffff);
  migrate::StateReader r{w.buffer()};
  Bytes out(8, 0xcc);
  r.get_bytes(out);  // short read: zero-filled, not UB
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(out, Bytes(8, 0));
  EXPECT_EQ(r.get_u32(), 0u);  // sticky
}

TEST(StateIo, OversizedBlobAndSectionFail) {
  migrate::StateWriter w;
  w.put_u64(1u << 30);  // blob claims 1 GiB
  migrate::StateReader r{w.buffer()};
  EXPECT_TRUE(r.get_blob().empty());
  EXPECT_TRUE(r.failed());

  migrate::StateWriter w2;
  w2.put_u32(9);
  w2.put_u64(1u << 30);  // section length past the stream end
  migrate::StateReader r2{w2.buffer()};
  EXPECT_FALSE(r2.enter_section(9));
  EXPECT_TRUE(r2.failed());
}

TEST(StateIo, Crc32KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(migrate::crc32(ConstByteSpan{
                reinterpret_cast<const u8*>(s), 9}),
            0xcbf43926u);
}

// ---- snapshot round trips -------------------------------------------------

Bytes echo_payload(u64 bytes, u32 op) {
  Bytes payload(bytes);
  for (u64 i = 0; i < bytes; ++i) {
    payload[i] = static_cast<u8>(i * 31 + op * 7 + 3);
  }
  return payload;
}

/// Run `ops` echo round trips and fold the outcomes into a trace that
/// any divergence between two testbeds will perturb.
std::vector<i64> run_trace(core::VirtioNetTestbed& bed, u32 ops,
                           u64 payload_bytes, u32 op_base = 0) {
  std::vector<i64> trace;
  for (u32 op = 0; op < ops; ++op) {
    const auto rt = bed.udp_round_trip(echo_payload(payload_bytes,
                                                    op_base + op));
    trace.push_back(rt.ok ? rt.total.picos() : -1);
    trace.push_back(bed.thread().now().picos());
  }
  return trace;
}

/// The warm-up every quiesced round trip snapshots after.
void drive_quiesced(core::VirtioNetTestbed& bed) {
  (void)run_trace(bed, 6, 256);
  bed.quiesce();
}

/// Snapshot A (quiesced), restore into a fresh B, then prove forward
/// behaviour is bit-identical: same op trace and byte-identical final
/// snapshots.
void expect_round_trip(core::TestbedOptions options) {
  core::VirtioNetTestbed a{options};
  drive_quiesced(a);
  const Bytes image = migrate::save_snapshot(a);

  core::VirtioNetTestbed b{options};
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);
  EXPECT_EQ(migrate::save_snapshot(b), image);

  const auto trace_a = run_trace(a, 8, 256, 100);
  const auto trace_b = run_trace(b, 8, 256, 100);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(b));
}

core::TestbedOptions split_options() {
  core::TestbedOptions options;
  options.seed = 0x51ee7;
  return options;
}

core::TestbedOptions packed_options() {
  core::TestbedOptions options;
  options.seed = 0x9ac4ed;
  options.use_packed_rings = true;
  return options;
}

TEST(Snapshot, RoundTripSplitRings) { expect_round_trip(split_options()); }

TEST(Snapshot, RoundTripPackedRings) { expect_round_trip(packed_options()); }

/// A driver that recovered reallocated its rings past the layout a fresh
/// testbed brings up. Restoring its image must rebind the target
/// driver's rings to the image's addresses (resident once the image's
/// memory is in), and the restored bed must then carry 100 echoes
/// exactly as the source does.
void expect_restored_rings_carry_traffic(core::TestbedOptions options) {
  core::VirtioNetTestbed a{options};
  drive_quiesced(a);
  ASSERT_TRUE(a.driver().recover(a.thread()));
  drive_quiesced(a);
  const Bytes image = migrate::save_snapshot(a);

  core::VirtioNetTestbed b{options};
  ASSERT_NE(testing_support::queue_registers(b.device(), 1).rings.desc,
            testing_support::queue_registers(a.device(), 1).rings.desc);
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);
  const auto trace_b = run_trace(b, 100, 256, 100);
  EXPECT_EQ(std::count(trace_b.begin(), trace_b.end(), -1), 0);
  EXPECT_EQ(trace_b, run_trace(a, 100, 256, 100));
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(b));
}

TEST(Snapshot, RestoredSplitRingsCarryTraffic) {
  expect_restored_rings_carry_traffic(split_options());
}

TEST(Snapshot, RestoredPackedRingsCarryTraffic) {
  expect_restored_rings_carry_traffic(packed_options());
}

/// Send a request and snapshot BEFORE harvesting the reply, so the
/// in-flight state (used-ring entries, pending interrupts) must survive
/// the restore. Both testbeds then receive
/// and must produce the identical datagram at the identical clock.
/// Warm up, then send a `payload_bytes` echo request and leave its
/// reply unharvested.
bool drive_mid_flight(core::VirtioNetTestbed& bed, u64 payload_bytes) {
  (void)run_trace(bed, 4, 256);  // warm the pools
  return bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                             bed.options().fpga_udp_port,
                             echo_payload(payload_bytes, 0xf0));
}

void expect_mid_flight_round_trip(core::TestbedOptions options,
                                  u64 payload_bytes) {
  core::VirtioNetTestbed a{options};
  ASSERT_TRUE(drive_mid_flight(a, payload_bytes));
  const Bytes payload = echo_payload(payload_bytes, 0xf0);
  // NO quiesce: the reply is sitting unharvested in the RX ring.
  const Bytes image = migrate::save_snapshot(a);

  core::VirtioNetTestbed b{options};
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);

  const auto reply_a = a.socket().recvfrom(a.thread());
  const auto reply_b = b.socket().recvfrom(b.thread());
  ASSERT_TRUE(reply_a.has_value());
  ASSERT_TRUE(reply_b.has_value());
  EXPECT_EQ(reply_a->payload, payload);
  EXPECT_EQ(reply_a->payload, reply_b->payload);
  EXPECT_EQ(a.thread().now().picos(), b.thread().now().picos());

  const auto trace_a = run_trace(a, 4, payload_bytes, 200);
  const auto trace_b = run_trace(b, 4, payload_bytes, 200);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(b));
}

core::TestbedOptions mid_flight_options() {
  core::TestbedOptions options;
  options.seed = 0x36b;
  return options;
}
constexpr u64 kMidFlightPayload = 1200;

TEST(Snapshot, MidFlightReply) {
  expect_mid_flight_round_trip(mid_flight_options(), kMidFlightPayload);
}

/// Snapshot with the blk function attached and a write-back layer in a
/// non-trivial state: durable data, a dirty (unflushed) sector, and
/// live driver counters all have to survive the restore, and forward
/// behaviour on both net and blk must stay bit-identical.
core::TestbedOptions blk_options() {
  core::TestbedOptions options;
  options.seed = 0xb10c;
  options.attach_blk = true;
  options.blk.capacity_sectors = 256;
  return options;
}

Bytes blk_durable_data() {
  Bytes durable_data(2 * 512);
  for (std::size_t i = 0; i < durable_data.size(); ++i) {
    durable_data[i] = static_cast<u8>(i * 13 + 1);
  }
  return durable_data;
}

/// Echo traffic, two flushed sectors at 7 and one unflushed at 40 (the
/// snapshot catches storage != durable), then quiesce.
bool drive_blk(core::VirtioNetTestbed& bed) {
  (void)run_trace(bed, 3, 256);
  const bool ok =
      bed.blk_driver().write_sectors(bed.thread(), 7, blk_durable_data()) &&
      bed.blk_driver().flush(bed.thread()) &&
      bed.blk_driver().write_sectors(bed.thread(), 40, Bytes(512, 0x5a)) &&
      bed.blk_logic().dirty_sectors() == 1;
  bed.quiesce();
  return ok;
}

TEST(Snapshot, RoundTripWithBlkAttached) {
  const core::TestbedOptions options = blk_options();
  core::VirtioNetTestbed a{options};
  ASSERT_TRUE(drive_blk(a));
  const Bytes durable_data = blk_durable_data();
  const Bytes image = migrate::save_snapshot(a);

  core::VirtioNetTestbed b{options};
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);
  EXPECT_EQ(migrate::save_snapshot(b), image);
  EXPECT_EQ(b.blk_logic().writes(), a.blk_logic().writes());
  EXPECT_EQ(b.blk_logic().dirty_sectors(), 1u);
  EXPECT_EQ(b.blk_driver().requests_completed(),
            a.blk_driver().requests_completed());

  Bytes readback(durable_data.size(), 0);
  ASSERT_TRUE(b.blk_driver().read_sectors(b.thread(), 7, readback));
  EXPECT_EQ(readback, durable_data);
  // The unflushed write is present in the volatile layer but absent
  // from the durable one — barrier state migrated exactly.
  Bytes dirty_sector(512, 0);
  ASSERT_TRUE(b.blk_driver().read_sectors(b.thread(), 40, dirty_sector));
  EXPECT_EQ(dirty_sector, Bytes(512, 0x5a));
  b.blk_logic().simulate_power_loss();
  ASSERT_TRUE(b.blk_driver().read_sectors(b.thread(), 40, dirty_sector));
  EXPECT_EQ(dirty_sector, Bytes(512, 0));

  // Forward net traffic on A stays bit-identical to a bed restored from
  // A's image (B diverged above by design, so compare against a fresh
  // restore target).
  core::VirtioNetTestbed c{options};
  ASSERT_EQ(migrate::restore_snapshot(c, image), RestoreStatus::kOk);
  const auto trace_a = run_trace(a, 4, 256, 300);
  const auto trace_c = run_trace(c, 4, 256, 300);
  EXPECT_EQ(trace_a, trace_c);
  Bytes rb_a(512, 0);
  Bytes rb_c(512, 1);
  ASSERT_TRUE(a.blk_driver().read_sectors(a.thread(), 40, rb_a));
  ASSERT_TRUE(c.blk_driver().read_sectors(c.thread(), 40, rb_c));
  EXPECT_EQ(rb_a, rb_c);
  EXPECT_EQ(a.thread().now().picos(), c.thread().now().picos());
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(c));
}

/// The CRC-32 an image carries: over every byte but its own trailer
/// (over the whole image it is the CRC residue, the same for every
/// image).
u32 body_crc(const Bytes& image) {
  return migrate::crc32(ConstByteSpan{image}.first(image.size() - 4));
}

/// The snapshot format pinned: the CRC-32 and size of the image of
/// every round-trip setup above. A refactor of the state layout must
/// leave every value as it is; a deliberate format change bumps
/// kSnapshotVersion and updates them in the same commit.
TEST(Snapshot, ImagesArePinned) {
  struct Pin {
    const char* setup;
    core::TestbedOptions options;
    bool (*drive)(core::VirtioNetTestbed&);
    u32 crc;
    std::size_t size;
  };
  const auto quiesced = [](core::VirtioNetTestbed& bed) {
    drive_quiesced(bed);
    return true;
  };
  const Pin pins[] = {
      {"split", split_options(), quiesced, 0x282cf227, 73793},
      {"packed", packed_options(), quiesced, 0xe1307c3a, 70191},
      {"blk", blk_options(), drive_blk, 0x3e7ee5e8, 358724},
      {"mid-flight", mid_flight_options(),
       [](core::VirtioNetTestbed& bed) {
         return drive_mid_flight(bed, kMidFlightPayload);
       },
       0x5dcc49ec, 73797},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.setup);
    core::VirtioNetTestbed bed{pin.options};
    ASSERT_TRUE(pin.drive(bed));
    const Bytes image = migrate::save_snapshot(bed);
    EXPECT_EQ(body_crc(image), pin.crc);
    EXPECT_EQ(image.size(), pin.size);
  }
}

// ---- round trip under an armed fault plane ---------------------------------

/// One faulted echo's outcome: whether an intact echo came back, whether
/// the recovery ladder had to act, and the clock after it. The clock
/// folds in every cost-model charge and noise draw of the op, so a
/// diverged ring index, recovery counter or RNG stream shows up here.
struct FaultedOp {
  bool ok = false;
  bool recovered = false;
  i64 end_picos = 0;

  bool operator==(const FaultedOp&) const = default;
};

constexpr u16 kFaultedFlows = 4;

/// Echo ops [first, first + count) round-robin over the steered flows,
/// each through the fault campaign's recovery ladder.
std::vector<FaultedOp> faulted_echoes(
    core::VirtioNetTestbed& bed,
    const std::vector<std::unique_ptr<hostos::UdpSocket>>& socks, u32 first,
    u32 count) {
  std::vector<FaultedOp> ops;
  for (u32 op = first; op < first + count; ++op) {
    const Bytes payload = harness::make_payload(256, bed.options().seed, op);
    const harness::EchoOutcome echo = harness::recovering_udp_echo(
        bed, *socks[op % kFaultedFlows], payload, 8, sim::milliseconds(50));
    ops.push_back({echo.ok, echo.first_failure.has_value(),
                   bed.thread().now().picos()});
  }
  return ops;
}

/// Four flows on the one queue pair with TLP drops, lost notifies and
/// lost used writes each at 2%: drive faulted echoes on A, quiesce,
/// snapshot and restore into a fresh B. The image restores exactly, and
/// an identical faulted op sequence then plays out identically on both
/// (the fault plane's RNG stream and every recovery counter crossed the
/// restore), ending in byte-identical snapshots.
void expect_round_trip_under_faults(bool packed, u64 seed) {
  core::TestbedOptions options;
  options.seed = seed;
  options.use_packed_rings = packed;
  options.fault.seed = seed * 7919 + 1;
  for (const fault::FaultClass cls :
       {fault::FaultClass::kTlpDrop, fault::FaultClass::kNotifyLost,
        fault::FaultClass::kUsedWriteFail}) {
    options.fault.set_rate(cls, 0.02);
  }
  core::VirtioNetTestbed a{options};
  core::VirtioNetTestbed b{options};
  const auto socks_a = harness::flow_sockets(a, kFaultedFlows, 30'000);
  const auto socks_b = harness::flow_sockets(b, kFaultedFlows, 30'000);

  (void)faulted_echoes(a, socks_a, 0, 24);
  a.quiesce();
  const u64 injected_before = a.fault_plane()->total_injected();
  EXPECT_GT(injected_before, 0u);
  const Bytes image = migrate::save_snapshot(a);
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);
  EXPECT_EQ(migrate::save_snapshot(b), image);

  const auto ops_a = faulted_echoes(a, socks_a, 1000, 24);
  const auto ops_b = faulted_echoes(b, socks_b, 1000, 24);
  EXPECT_EQ(ops_a, ops_b);
  EXPECT_GT(a.fault_plane()->total_injected(), injected_before);
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(b));
}

TEST(Snapshot, RoundTripUnderFaultsSplit) {
  expect_round_trip_under_faults(false, 0x6161);
}

TEST(Snapshot, RoundTripUnderFaultsPacked) {
  expect_round_trip_under_faults(true, 0x6162);
}

// ---- counter bank ---------------------------------------------------------

TEST(PerfCounterBank, StateCarriesLatestCyclesButNotTheWindow) {
  using fpga::CounterEvent;
  fpga::PerfCounterBank source;
  source.capture(CounterEvent::kNotify, sim::SimTime{} + sim::nanoseconds(80));
  source.capture(CounterEvent::kIrqSent,
                 sim::SimTime{} + sim::nanoseconds(1680));
  migrate::StateWriter w;
  migrate::StateIo save{w};
  source.transfer(save);
  EXPECT_EQ(w.buffer().size(), 4u + 2u * 8u);  // mask + two cycles

  fpga::PerfCounterBank restored;
  migrate::StateReader r{w.buffer()};
  migrate::StateIo load{r};
  restored.transfer(load);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(restored.interval("notify", "irq_sent").nanos(), 1600.0);
  EXPECT_FALSE(restored.cycles(CounterEvent::kUlStart).has_value());
  EXPECT_TRUE(restored.history().empty());
}

// The window after every capture, from the first through three wraps:
// the last min(n, depth) captures, oldest first.
TEST(PerfCounterBank, HistoryKeepsTheLastDepthCapturesOldestFirst) {
  constexpr std::size_t kDepth = fpga::PerfCounterBank::kHistoryDepth;
  fpga::PerfCounterBank bank;
  std::vector<fpga::PerfCounterBank::Capture> sent;
  for (std::size_t n = 0; n < 3 * kDepth + 5; ++n) {
    const auto event =
        static_cast<fpga::CounterEvent>(n % fpga::kCounterEvents);
    const sim::SimTime at =
        sim::SimTime{} + sim::nanoseconds(static_cast<i64>(8 * (3 * n + 1)));
    bank.capture(event, at);
    sent.push_back({event, 3 * n + 1});

    const auto history = bank.history();
    const std::size_t want = std::min(sent.size(), kDepth);
    ASSERT_EQ(history.size(), want) << "after capture " << n;
    for (std::size_t i = 0; i < want; ++i) {
      const auto& expected = sent[sent.size() - want + i];
      ASSERT_EQ(history[i].event, expected.event) << n << ", entry " << i;
      ASSERT_EQ(history[i].cycle, expected.cycle) << n << ", entry " << i;
    }
  }
}

TEST(PerfCounterBank, LoadStateRejectsUnknownEventBit) {
  migrate::StateWriter w;
  w.put_u32(1u | 1u << fpga::kCounterEvents);  // notify + one past the last
  w.put_u64(10);
  w.put_u64(20);

  fpga::PerfCounterBank bank;
  bank.capture(fpga::CounterEvent::kUlDone, sim::SimTime{});
  migrate::StateReader r{w.buffer()};
  migrate::StateIo io{r};
  bank.transfer(io);
  EXPECT_TRUE(r.failed());
  for (std::size_t id = 0; id < fpga::kCounterEvents; ++id) {
    EXPECT_FALSE(bank.cycles(static_cast<fpga::CounterEvent>(id)).has_value())
        << fpga::kCounterEventNames[id];
  }
  EXPECT_TRUE(bank.history().empty());
}

// ---- rejection paths ------------------------------------------------------

Bytes snapshot_of(core::TestbedOptions options) {
  core::VirtioNetTestbed bed{options};
  (void)run_trace(bed, 3, 128);
  bed.quiesce();
  return migrate::save_snapshot(bed);
}

/// An image's magic and version; each section then opens with a u32 id
/// and a u64 length.
constexpr std::size_t kImageHeader = 8 + 4;

u64 read_le64(const Bytes& b, std::size_t off) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | b[off + static_cast<std::size_t>(i)];
  }
  return v;
}

/// Where an image's state section ({u32 id, u64 length}, then the
/// payload) starts: after the header and the fingerprint section.
std::size_t state_section_at(const Bytes& image) {
  return kImageHeader + 12 +
         static_cast<std::size_t>(read_le64(image, kImageHeader + 4));
}

void patch_crc(Bytes& image) {
  const u32 crc =
      migrate::crc32(ConstByteSpan{image.data(), image.size() - 4});
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * i));
  }
}

/// The restore target must stay fully usable after a rejected image.
void expect_unharmed(core::VirtioNetTestbed& bed) {
  EXPECT_EQ(bed.device().device_errors(), 0u);
  const auto rt = bed.udp_round_trip(echo_payload(64, 1));
  EXPECT_TRUE(rt.ok);
}

TEST(SnapshotReject, Truncated) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);
  image.resize(10);
  core::VirtioNetTestbed bed{options};
  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kTruncated);
  expect_unharmed(bed);
}

TEST(SnapshotReject, BadMagic) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);
  image[0] ^= 0x01;
  core::VirtioNetTestbed bed{options};
  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kBadMagic);
  expect_unharmed(bed);
}

TEST(SnapshotReject, VersionSkew) {
  core::TestbedOptions options;
  const Bytes current = snapshot_of(options);
  // Version 1 serialized the counter bank's whole capture log; version
  // 2 fingerprinted options that are now constants; version 3 carried
  // interrupt-moderation state; version 4 carried the ARP-reply,
  // GET_ID and DISCARD counters; version 5 fingerprinted the device's
  // MAC and IP and carried the blk personality's negotiated features;
  // version 6 fingerprinted the EVENT_IDX and INDIRECT_DESC offer
  // switches and carried the packed engine's copy of its head register;
  // version 7 fingerprinted the MTU and the mergeable-RX and offload
  // options and carried the segmentation and span-reassembly state;
  // version 8 had a flags word whose bit 0 made the memory section
  // optional, and carried the split engine's stale-completion count;
  // version 9 carried the stack's queued ICMP replies and the device's
  // ICMP echo count; version 10 fingerprinted the pair counts and
  // carried the multi-queue state (the device's steering table and
  // per-pair echo and control counts, the driver's control-queue
  // buffers and per-pair state, the stack's flow affinities), the
  // per-vector interrupt counts and the steering-corrupt fault rate.
  for (const u8 version : {u8{1}, u8{2}, u8{3}, u8{4}, u8{5}, u8{6}, u8{7},
                           u8{8}, u8{9}, u8{10}, u8{99}}) {
    SCOPED_TRACE(static_cast<int>(version));
    Bytes image = current;
    image[8] = version;  // version field, checked before the checksum
    core::VirtioNetTestbed bed{options};
    EXPECT_EQ(migrate::restore_snapshot(bed, image),
              RestoreStatus::kBadVersion);
    expect_unharmed(bed);
  }
}

TEST(SnapshotReject, BitFlipFailsChecksum) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);
  image[image.size() / 2] ^= 0x40;
  core::VirtioNetTestbed bed{options};
  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kBadChecksum);
  expect_unharmed(bed);
}

TEST(SnapshotReject, IncompatibleOptions) {
  // One mutation per fingerprint group: each changes the bring-up, so an
  // image taken without it must not apply.
  struct Mutation {
    const char* field;
    bool attach_blk;
    void (*apply)(core::TestbedOptions&);
  };
  const Mutation mutations[] = {
      {"seed", false, [](core::TestbedOptions& o) { o.seed = 0xbbbb; }},
      {"use_packed_rings", false,
       [](core::TestbedOptions& o) { o.use_packed_rings = true; }},
      {"datapath.tx_path", false,
       [](core::TestbedOptions& o) {
         o.datapath.tx_path =
             hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
       }},
      {"controller.policy.batched_chain_fetch", false,
       [](core::TestbedOptions& o) {
         o.controller.policy.batched_chain_fetch = true;
       }},
      {"blk_driver.queue_depth", true,
       [](core::TestbedOptions& o) { o.blk_driver.queue_depth = 16; }},
  };
  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.field);
    core::TestbedOptions source;
    source.seed = 0xaaaa;
    source.attach_blk = m.attach_blk;
    const Bytes image = snapshot_of(source);

    core::TestbedOptions other = source;
    m.apply(other);
    core::VirtioNetTestbed bed{other};
    EXPECT_EQ(migrate::restore_snapshot(bed, image),
              RestoreStatus::kIncompatible);
    expect_unharmed(bed);
  }
}

/// Every image carries its memory section: one cut off after the state
/// section (and re-sealed) is malformed before anything is applied.
TEST(SnapshotReject, MissingMemorySection) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);
  const std::size_t state_header = state_section_at(image);
  const u64 state_len = read_le64(image, state_header + 4);
  image.resize(state_header + 12 + state_len + 4);
  patch_crc(image);
  core::VirtioNetTestbed bed{options};
  const u64 resident = bed.memory().resident_bytes();
  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kMalformed);
  EXPECT_EQ(bed.memory().resident_bytes(), resident);
  expect_unharmed(bed);
}

TEST(SnapshotReject, MalformedStateLatchesDeviceNeedsReset) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);

  // Surgically corrupt a validated structural count inside the state
  // section — the interrupt controller's vector count, which sits right
  // after the 32-byte host-thread record — and re-seal the checksum, so
  // the image passes every transit check and fails only mid-apply.
  const std::size_t state_payload = state_section_at(image) + 12;
  image[state_payload + 32] ^= 0xff;
  patch_crc(image);

  core::VirtioNetTestbed bed{options};
  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kMalformed);
  // Mid-apply failure cannot be rolled back: the device must be
  // error-latched, not silently half-restored.
  EXPECT_GE(bed.device().device_errors(), 1u);
  EXPECT_NE(bed.device().device_status() &
                virtio::status::kDeviceNeedsReset,
            0);
}

// ---- restored indices ------------------------------------------------------

u64 load_le(ConstByteSpan b, std::size_t off, std::size_t width) {
  u64 v = 0;
  for (std::size_t i = width; i-- > 0;) {
    v = (v << 8) | b[off + i];
  }
  return v;
}

void store_le(ByteSpan b, std::size_t off, std::size_t width, u64 v) {
  for (std::size_t i = 0; i < width; ++i) {
    b[off + i] = static_cast<u8>(v >> (8 * i));
  }
}

/// A range-checked field of the net driver's state (transport and
/// rings included): where it sits and a value past its table.
struct Poison {
  std::size_t offset;
  std::size_t width;
  u64 value;
};

/// Where the TX ring (queue 1) starts in the driver state: ten bytes
/// (queue size, features) before its ring addresses, which the device's
/// queue registers hold too.
std::size_t tx_ring_at(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const virtio::RingAddresses rings =
      testing_support::queue_registers(bed.device(), 1).rings;
  std::array<u8, 24> addrs{};
  store_le(addrs, 0, 8, rings.desc);
  store_le(addrs, 8, 8, rings.avail);
  store_le(addrs, 16, 8, rings.used);
  const auto it = std::search(state.begin(), state.end(), addrs.begin(),
                              addrs.end());
  EXPECT_NE(it, state.end());
  return static_cast<std::size_t>(it - state.begin()) - 10;
}

/// The split ring's free head and free count follow the queue size,
/// features, addresses and four per-descriptor tables (22 bytes each).
Poison split_free_head(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  const u64 size = load_le(state, ring, 2);
  return {ring + 34 + 22 * size, 2, size};
}

Poison split_num_free(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  const u64 size = load_le(state, ring, 2);
  return {ring + 36 + 22 * size, 2, size + 1};
}

/// The packed ring's cursors follow the free-id list and the four
/// per-id tables.
std::size_t packed_cursors_at(ConstByteSpan state, std::size_t ring) {
  const u64 size = load_le(state, ring, 2);
  const u64 free_ids = load_le(state, ring + 34, 2);
  return ring + 36 + 2 * free_ids + 22 * size;
}

Poison packed_free_id(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  EXPECT_GT(load_le(state, ring + 34, 2), 0u);
  return {ring + 36, 2, load_le(state, ring, 2)};
}

Poison packed_num_free(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  return {packed_cursors_at(state, ring), 2, load_le(state, ring, 2) + 1};
}

Poison packed_next_avail(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  return {packed_cursors_at(state, ring) + 2, 2, load_le(state, ring, 2)};
}

Poison packed_next_used(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const std::size_t ring = tx_ring_at(state, bed);
  return {packed_cursors_at(state, ring) + 5, 2, load_le(state, ring, 2)};
}

/// Where the driver's own fields start: its MAC opens them, after the
/// transport.
std::size_t net_driver_fields_at(ConstByteSpan state,
                                 core::VirtioNetTestbed& bed) {
  const auto mac = bed.driver().mac().octets;
  const auto it =
      std::search(state.begin(), state.end(), mac.begin(), mac.end());
  EXPECT_NE(it, state.end());
  return static_cast<std::size_t>(it - state.begin());
}

/// The first free TX slot. After the MAC and MTU (8 bytes) come the RX
/// buffers (12 bytes each), the TX buffers (16 bytes each) and the free
/// TX slots, each list behind a u32 count.
Poison net_tx_free_slot(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  std::size_t at = net_driver_fields_at(state, bed) + 8;
  at += 4 + 12 * load_le(state, at, 4);
  const u64 tx_buffers = load_le(state, at, 4);
  at += 4 + 16 * tx_buffers;
  EXPECT_GT(load_le(state, at, 4), 0u);
  return {at + 4, 4, tx_buffers};
}

/// The interrupt vectors follow the free TX slots and the RX backlog
/// (each frame a blob and a checksum flag). A vector past the host's
/// vector count names an interrupt queue that was never allocated: the
/// first echo after the restore would index it.
std::size_t net_vectors_at(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  std::size_t at = net_driver_fields_at(state, bed) + 8;
  at += 4 + 12 * load_le(state, at, 4);
  at += 4 + 16 * load_le(state, at, 4);
  at += 4 + 4 * load_le(state, at, 4);
  const u64 backlog = load_le(state, at, 4);
  at += 4;
  for (u64 i = 0; i < backlog; ++i) {
    at += 8 + load_le(state, at, 8) + 1;
  }
  EXPECT_EQ(load_le(state, at, 4), bed.driver().rx_vector());
  EXPECT_EQ(load_le(state, at + 4, 4), bed.driver().tx_vector());
  return at;
}

Poison net_rx_vector(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  return {net_vectors_at(state, bed), 4, bed.irq().vector_count()};
}

Poison net_tx_vector(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  return {net_vectors_at(state, bed) + 4, 4, bed.irq().vector_count()};
}

/// Where queue 1's ring addresses next occur in the device state at or
/// after `from`. The state holds them twice: in the queue registers
/// (after the size, MSI-X vector and enabled flag), then in the engine.
std::size_t device_rings_at(ConstByteSpan state, core::VirtioNetTestbed& bed,
                            std::size_t from) {
  const virtio::RingAddresses rings =
      testing_support::queue_registers(bed.device(), 1).rings;
  std::array<u8, 24> addrs{};
  store_le(addrs, 0, 8, rings.desc);
  store_le(addrs, 8, 8, rings.avail);
  store_le(addrs, 16, 8, rings.used);
  const auto it = std::search(state.begin() + static_cast<std::ptrdiff_t>(from),
                              state.end(), addrs.begin(), addrs.end());
  EXPECT_NE(it, state.end());
  return static_cast<std::size_t>(it - state.begin());
}

/// Queue 1's device ring size (the split engine) or size and cursors
/// (the packed engine) follow the engine's copy of the addresses.
std::size_t device_ring_size_at(ConstByteSpan state,
                                core::VirtioNetTestbed& bed) {
  return device_rings_at(state, bed, device_rings_at(state, bed, 0) + 1) + 24;
}

Poison device_queue_size(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  return {device_ring_size_at(state, bed), 2, 0};
}

Poison packed_engine_avail_cursor(ConstByteSpan state,
                                  core::VirtioNetTestbed& bed) {
  const std::size_t at = device_ring_size_at(state, bed);
  return {at + 2, 2, load_le(state, at, 2)};
}

Poison packed_engine_used_cursor(ConstByteSpan state,
                                 core::VirtioNetTestbed& bed) {
  const std::size_t at = device_ring_size_at(state, bed);
  return {at + 5, 2, load_le(state, at, 2)};
}

void transfer_driver(core::VirtioNetTestbed& bed, migrate::StateIo& io) {
  bed.driver().transfer(io);
}

void transfer_device(core::VirtioNetTestbed& bed, migrate::StateIo& io) {
  bed.device().transfer(io);
}

/// Transfer one part of `bed`'s state (the driver's by default) out,
/// poison one field and transfer it back: the reader must fail. Then
/// poison the same field in a snapshot image, re-seal the CRC and
/// restore it into a fresh testbed: the restore is malformed and
/// latches DEVICE_NEEDS_RESET. Returns how many bytes of host memory the
/// failed restore made resident beyond the image's own memory section
/// (the source's pages, a superset of the target's after bring-up):
/// none, since a failed restore must not post the config interrupt
/// through unrestored MSI-X entries.
u64 expect_poison_rejected(
    core::TestbedOptions options,
    Poison (*locate)(ConstByteSpan, core::VirtioNetTestbed&),
    void (*transfer)(core::VirtioNetTestbed&,
                     migrate::StateIo&) = transfer_driver) {
  core::VirtioNetTestbed bed{options};
  drive_quiesced(bed);
  migrate::StateWriter w;
  migrate::StateIo save{w};
  transfer(bed, save);
  const Bytes state = w.take();
  Bytes image = migrate::save_snapshot(bed);
  const u64 image_resident = bed.memory().resident_bytes();
  const Poison poison = locate(state, bed);

  {
    Bytes valid = state;
    migrate::StateReader r{valid};
    migrate::StateIo load{r};
    transfer(bed, load);
    EXPECT_FALSE(load.failed());
  }
  Bytes poisoned = state;
  store_le(poisoned, poison.offset, poison.width, poison.value);
  migrate::StateReader r{poisoned};
  migrate::StateIo load{r};
  transfer(bed, load);
  EXPECT_TRUE(load.failed());

  const auto at = std::search(image.begin(), image.end(), state.begin(),
                              state.end());
  EXPECT_NE(at, image.end());
  if (at == image.end()) {
    return 0;
  }
  store_le(image, static_cast<std::size_t>(at - image.begin()) + poison.offset,
           poison.width, poison.value);
  patch_crc(image);
  core::VirtioNetTestbed target{options};
  EXPECT_EQ(migrate::restore_snapshot(target, image),
            RestoreStatus::kMalformed);
  EXPECT_GE(target.device().device_errors(), 1u);
  EXPECT_NE(target.device().device_status() &
                virtio::status::kDeviceNeedsReset,
            0);
  return target.memory().resident_bytes() - image_resident;
}

TEST(RestoredIndex, SplitFreeHead) {
  EXPECT_EQ(expect_poison_rejected(split_options(), split_free_head), 0u);
}

TEST(RestoredIndex, SplitNumFree) {
  EXPECT_EQ(expect_poison_rejected(split_options(), split_num_free), 0u);
}

TEST(RestoredIndex, PackedFreeId) {
  EXPECT_EQ(expect_poison_rejected(packed_options(), packed_free_id), 0u);
}

TEST(RestoredIndex, PackedNumFree) {
  EXPECT_EQ(expect_poison_rejected(packed_options(), packed_num_free), 0u);
}

TEST(RestoredIndex, PackedNextAvailSlot) {
  EXPECT_EQ(expect_poison_rejected(packed_options(), packed_next_avail), 0u);
}

TEST(RestoredIndex, PackedNextUsedSlot) {
  EXPECT_EQ(expect_poison_rejected(packed_options(), packed_next_used), 0u);
}

TEST(RestoredIndex, NetTxFreeSlot) {
  EXPECT_EQ(expect_poison_rejected(split_options(), net_tx_free_slot), 0u);
}

TEST(RestoredIndex, NetRxVector) {
  EXPECT_EQ(expect_poison_rejected(split_options(), net_rx_vector), 0u);
}

TEST(RestoredIndex, NetTxVector) {
  EXPECT_EQ(expect_poison_rejected(split_options(), net_tx_vector), 0u);
}

// The device-side poisons fail before the MSI-X table is read: the
// failed restore must leave its vectors masked, not aimed at address 0.
TEST(RestoredIndex, SplitDeviceQueueSize) {
  EXPECT_EQ(expect_poison_rejected(split_options(), device_queue_size,
                                   transfer_device),
            0u);
}

TEST(RestoredIndex, PackedDeviceQueueSize) {
  EXPECT_EQ(expect_poison_rejected(packed_options(), device_queue_size,
                                   transfer_device),
            0u);
}

TEST(RestoredIndex, PackedDeviceAvailCursor) {
  EXPECT_EQ(expect_poison_rejected(packed_options(),
                                   packed_engine_avail_cursor,
                                   transfer_device),
            0u);
}

TEST(RestoredIndex, PackedDeviceUsedCursor) {
  EXPECT_EQ(expect_poison_rejected(packed_options(),
                                   packed_engine_used_cursor,
                                   transfer_device),
            0u);
}

/// A queue-size register of 0 over a ring restored with size 0 passes
/// the ring's own check, so the register is checked the way a register
/// write is (non-zero, at most the advertised maximum).
void transfer_blk(core::VirtioNetTestbed& bed, migrate::StateIo& io) {
  bed.blk_logic().transfer(io);
}

/// The blk state's dirty-sector count, after the two data layers and the
/// per-sector flags (each layer a u64 size and its bytes): one more than
/// the flags hold, which would misprice the next FLUSH.
Poison blk_dirty_count(ConstByteSpan state, core::VirtioNetTestbed& bed) {
  const core::BlkDeviceConfig& config = bed.blk_logic().config();
  const std::size_t layer =
      8 + config.capacity_sectors * virtio::blk::kSectorBytes;
  const std::size_t at = 2 * layer + 8 + config.capacity_sectors;
  return {at, 8, load_le(state, at, 8) + 1};
}

TEST(RestoredIndex, BlkDirtyCountDisagreesWithFlags) {
  EXPECT_EQ(
      expect_poison_rejected(blk_options(), blk_dirty_count, transfer_blk),
      0u);
}

TEST(RestoredIndex, QueueSizeRegister) {
  core::VirtioNetTestbed bed{split_options()};
  drive_quiesced(bed);
  migrate::StateWriter w;
  migrate::StateIo save{w};
  bed.device().transfer(save);
  const Bytes state = w.take();
  Bytes image = migrate::save_snapshot(bed);
  const std::size_t size_register = device_rings_at(state, bed, 0) - 5;
  const std::size_t ring_size = device_ring_size_at(state, bed);
  const auto poison = [&](ByteSpan bytes, std::size_t at) {
    store_le(bytes, at + size_register, 2, 0);
    store_le(bytes, at + ring_size, 2, 0);
  };

  Bytes poisoned = state;
  poison(poisoned, 0);
  migrate::StateReader r{poisoned};
  migrate::StateIo load{r};
  bed.device().transfer(load);
  EXPECT_TRUE(load.failed());

  const auto at = std::search(image.begin(), image.end(), state.begin(),
                              state.end());
  ASSERT_NE(at, image.end());
  poison(image, static_cast<std::size_t>(at - image.begin()));
  patch_crc(image);
  core::VirtioNetTestbed target{split_options()};
  EXPECT_EQ(migrate::restore_snapshot(target, image),
            RestoreStatus::kMalformed);
  EXPECT_NE(target.device().device_status() &
                virtio::status::kDeviceNeedsReset,
            0);
}

/// A TX ring area moved to memory no page backs: the driver cannot
/// resolve its ring there, so the restore is malformed, and resolving
/// allocates no page.
Poison split_desc_non_resident(ConstByteSpan state,
                               core::VirtioNetTestbed& bed) {
  return {tx_ring_at(state, bed) + 10, 8, 0x7000'0000'0000ull};
}

Poison packed_device_event_non_resident(ConstByteSpan state,
                                        core::VirtioNetTestbed& bed) {
  return {tx_ring_at(state, bed) + 26, 8, 0x7000'0000'0000ull};
}

TEST(RestoredRing, SplitDescriptorTableNotResident) {
  EXPECT_EQ(expect_poison_rejected(split_options(), split_desc_non_resident),
            0u);
}

TEST(RestoredRing, PackedDeviceEventNotResident) {
  EXPECT_EQ(expect_poison_rejected(packed_options(),
                                   packed_device_event_non_resident),
            0u);
}

// ---- snapshot-image mutation smoke ------------------------------------------

/// Seeded single-byte mutations of the state section, each re-sealed
/// with a good CRC: every restore either applies or is rejected as
/// malformed with the device error-latched — never a crash or UB (the
/// sanitizer builds run this too). Restore only: driving traffic after
/// an applied mutation is not checked here.
void expect_state_mutations_contained(core::TestbedOptions options,
                                      u64 seed) {
  const Bytes image = snapshot_of(options);
  const std::size_t state_header = state_section_at(image);
  const std::size_t state_at = state_header + 12;
  const u64 state_len = read_le64(image, state_header + 4);
  sim::Xoshiro256 rng{seed};
  int malformed = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes mutated = image;
    const std::size_t at = state_at + rng.uniform_below(state_len);
    mutated[at] ^= static_cast<u8>(1 + rng.uniform_below(255));
    patch_crc(mutated);
    core::VirtioNetTestbed bed{options};
    const RestoreStatus status = migrate::restore_snapshot(bed, mutated);
    SCOPED_TRACE(at);
    ASSERT_TRUE(status == RestoreStatus::kOk ||
                status == RestoreStatus::kMalformed)
        << migrate::restore_status_name(status);
    if (status == RestoreStatus::kMalformed) {
      ++malformed;
      EXPECT_GE(bed.device().device_errors(), 1u);
      EXPECT_NE(bed.device().device_status() &
                    virtio::status::kDeviceNeedsReset,
                0);
    }
  }
  // Most bytes are counters and timestamps, but a seeded run must also
  // hit some of the checked ones.
  EXPECT_GT(malformed, 0);
}

TEST(SnapshotMutation, SplitStateSection) {
  expect_state_mutations_contained(split_options(), 0x5eed01);
}

TEST(SnapshotMutation, PackedStateSection) {
  expect_state_mutations_contained(packed_options(), 0x5eed02);
}

/// An image whose config MSI-X entry carries a message the host never
/// allocated, and whose counter bank — right after the MSI-X table —
/// fails the reader: the failed restore's device_error() fires that
/// entry, and the interrupt controller drops the message as spurious.
TEST(SnapshotReject, MsiToUnallocatedVectorIsDropped) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);
  core::VirtioNetTestbed bed{options};
  // The MSI-X table: a u32 entry count, then {u64 address, u32 data,
  // bool masked, bool pending} per entry; entry 0 targets the MSI window.
  const u32 entries = bed.device().msix().size();
  std::array<u8, 12> table_head{};
  store_le(table_head, 0, 4, entries);
  store_le(table_head, 4, 8, hostos::InterruptController::message_address());
  const auto table = std::search(image.begin(), image.end(),
                                 table_head.begin(), table_head.end());
  ASSERT_NE(table, image.end());
  const auto at = static_cast<std::size_t>(table - image.begin());
  store_le(image, at + 12, 4, 999);               // entry 0's message data
  store_le(image, at + 4 + 14 * entries, 4, ~0u);  // counter-bank mask
  patch_crc(image);

  EXPECT_EQ(migrate::restore_snapshot(bed, image),
            RestoreStatus::kMalformed);
  EXPECT_GE(bed.device().device_errors(), 1u);
}

TEST(SnapshotReject, StatusNames) {
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kOk), "ok");
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kBadChecksum),
               "bad-checksum");
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kIncompatible),
               "incompatible");
}

}  // namespace
}  // namespace vfpga
