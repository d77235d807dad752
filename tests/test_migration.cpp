// Snapshot/restore and live-migration tests: state-io substrate safety,
// the perf-counter bank's state section, crash-consistent round trips
// on both ring formats (including snapshots taken mid-mergeable-RX
// span, mid-GSO superframe, and with DIM moderation armed), rejection
// of version-skewed/corrupted images, and the two-host migration
// harness end to end.
#include <gtest/gtest.h>

#include <array>

#include "vfpga/core/testbed.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/harness/migration.hpp"
#include "vfpga/migrate/snapshot.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga {
namespace {

using migrate::RestoreStatus;

// ---- state-io substrate ---------------------------------------------------

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

/// Snapshot A (quiesced), restore into a fresh B, then prove forward
/// behaviour is bit-identical: same op trace and byte-identical final
/// snapshots.
void expect_round_trip(core::TestbedOptions options) {
  core::VirtioNetTestbed a{options};
  (void)run_trace(a, 6, 256);
  a.quiesce();
  const Bytes image = migrate::save_snapshot(a);

  core::VirtioNetTestbed b{options};
  ASSERT_EQ(migrate::restore_snapshot(b, image), RestoreStatus::kOk);
  EXPECT_EQ(migrate::save_snapshot(b), image);

  const auto trace_a = run_trace(a, 8, 256, 100);
  const auto trace_b = run_trace(b, 8, 256, 100);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(migrate::save_snapshot(a), migrate::save_snapshot(b));
}

TEST(Snapshot, RoundTripSplitRings) {
  core::TestbedOptions options;
  options.seed = 0x51ee7;
  expect_round_trip(options);
}

TEST(Snapshot, RoundTripPackedRings) {
  core::TestbedOptions options;
  options.seed = 0x9ac4ed;
  options.use_packed_rings = true;
  expect_round_trip(options);
}

TEST(Snapshot, RoundTripMultiQueue) {
  core::TestbedOptions options;
  options.seed = 0x3b;
  options.net.max_queue_pairs = 2;
  options.requested_queue_pairs = 2;
  expect_round_trip(options);
}

/// Send a request and snapshot BEFORE harvesting the reply, so the
/// in-flight state (used-ring entries, pending interrupts, partially
/// consumed spans) must survive the restore. Both testbeds then receive
/// and must produce the identical datagram at the identical clock.
void expect_mid_flight_round_trip(core::TestbedOptions options,
                                  u64 payload_bytes) {
  core::VirtioNetTestbed a{options};
  (void)run_trace(a, 4, 256);  // warm pools, arm moderation if enabled

  const Bytes payload = echo_payload(payload_bytes, 0xf0);
  ASSERT_TRUE(a.socket().sendto(a.thread(), a.fpga_ip(),
                                a.options().fpga_udp_port, payload));
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

TEST(Snapshot, MidMergeableRxSpan) {
  core::TestbedOptions options;
  options.seed = 0x36b;
  options.datapath.want_mrg_rxbuf = true;
  // Small buffers so a full-size frame spans several of them and the
  // snapshot catches a genuinely multi-buffer span in flight.
  options.datapath.mrg_buffer_bytes = 512;
  expect_mid_flight_round_trip(options, 1200);
}

TEST(Snapshot, MidGsoSuperframe) {
  core::TestbedOptions options;
  options.seed = 0x650;
  options.datapath.tx_path =
      hostos::VirtioNetDriver::TxPath::kScatterGather;
  options.datapath.want_offload = true;
  options.datapath.want_mrg_rxbuf = true;
  // Payload far above the MTU: the stack hands the device one GSO
  // superframe and the echo comes back as a GRO-coalesced span.
  expect_mid_flight_round_trip(options, 6000);
}

TEST(Snapshot, DimModerationArmed) {
  core::TestbedOptions options;
  options.seed = 0xd13;
  options.net.offer_notf_coal = true;
  options.datapath.want_rx_moderation = true;
  expect_mid_flight_round_trip(options, 512);
}

/// Snapshot with the blk function attached and a write-back layer in a
/// non-trivial state: durable data, a dirty (unflushed) sector, and
/// live driver counters all have to survive the restore, and forward
/// behaviour on both net and blk must stay bit-identical.
TEST(Snapshot, RoundTripWithBlkAttached) {
  core::TestbedOptions options;
  options.seed = 0xb10c;
  options.attach_blk = true;
  options.blk.capacity_sectors = 256;

  core::VirtioNetTestbed a{options};
  (void)run_trace(a, 3, 256);
  Bytes durable_data(2 * 512);
  for (std::size_t i = 0; i < durable_data.size(); ++i) {
    durable_data[i] = static_cast<u8>(i * 13 + 1);
  }
  ASSERT_TRUE(a.blk_driver().write_sectors(a.thread(), 7, durable_data));
  ASSERT_TRUE(a.blk_driver().flush(a.thread()));
  // One write left unflushed: the snapshot catches storage != durable.
  ASSERT_TRUE(a.blk_driver().write_sectors(a.thread(), 40, Bytes(512, 0x5a)));
  ASSERT_EQ(a.blk_logic().dirty_sectors(), 1u);
  a.quiesce();
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

TEST(Snapshot, NoMemoryImageIsSmall) {
  core::TestbedOptions options;
  core::VirtioNetTestbed a{options};
  (void)run_trace(a, 4, 256);
  a.quiesce();
  const Bytes with_memory = migrate::save_snapshot(a);
  const Bytes without = migrate::save_snapshot(a, /*include_memory=*/false);
  EXPECT_LT(without.size(), with_memory.size());
  // The blackout image must stay far below one memory page per queue —
  // that is what keeps the switchover window tiny.
  EXPECT_LT(without.size(), 64u * 1024u);
}

// ---- counter bank ---------------------------------------------------------

TEST(PerfCounterBank, StateCarriesLatestCyclesButNotTheWindow) {
  using fpga::CounterEvent;
  fpga::PerfCounterBank source;
  source.capture(CounterEvent::kNotify, sim::SimTime{} + sim::nanoseconds(80));
  source.capture(CounterEvent::kIrqSent,
                 sim::SimTime{} + sim::nanoseconds(1680));
  migrate::StateWriter w;
  source.save_state(w);
  EXPECT_EQ(w.buffer().size(), 4u + 2u * 8u);  // mask + two cycles

  fpga::PerfCounterBank restored;
  migrate::StateReader r{w.buffer()};
  restored.load_state(r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(restored.interval("notify", "irq_sent").nanos(), 1600.0);
  EXPECT_FALSE(restored.cycles(CounterEvent::kUlStart).has_value());
  EXPECT_TRUE(restored.history().empty());
}

TEST(PerfCounterBank, LoadStateRejectsUnknownEventBit) {
  migrate::StateWriter w;
  w.put_u32(1u | 1u << fpga::kCounterEvents);  // notify + one past the last
  w.put_u64(10);
  w.put_u64(20);

  fpga::PerfCounterBank bank;
  bank.capture(fpga::CounterEvent::kUlDone, sim::SimTime{});
  migrate::StateReader r{w.buffer()};
  bank.load_state(r);
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

u64 read_le64(const Bytes& b, std::size_t off) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | b[off + static_cast<std::size_t>(i)];
  }
  return v;
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
  // 2 fingerprinted options that are now constants.
  for (const u8 version : {u8{1}, u8{2}, u8{99}}) {
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
      {"net.mtu", false, [](core::TestbedOptions& o) { o.net.mtu = 9000; }},
      {"datapath.tx_path", false,
       [](core::TestbedOptions& o) {
         o.datapath.tx_path = hostos::VirtioNetDriver::TxPath::kScatterGather;
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

TEST(SnapshotReject, MalformedStateLatchesDeviceNeedsReset) {
  core::TestbedOptions options;
  Bytes image = snapshot_of(options);

  // Surgically corrupt a validated structural count inside the state
  // section — the interrupt controller's vector count, which sits right
  // after the 32-byte host-thread record — and re-seal the checksum, so
  // the image passes every transit check and fails only mid-apply.
  const std::size_t fp_len = static_cast<std::size_t>(read_le64(image, 20));
  const std::size_t state_payload = 16 + 12 + fp_len + 12;
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

TEST(SnapshotReject, StatusNames) {
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kOk), "ok");
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kBadChecksum),
               "bad-checksum");
  EXPECT_STREQ(migrate::restore_status_name(RestoreStatus::kIncompatible),
               "incompatible");
}

// ---- live migration harness ----------------------------------------------

TEST(Migration, LiveMigrationUnderFaultsSplit) {
  harness::MigrationConfig config;
  config.seed = 0x6161;
  config.ops_per_round = 8;
  config.max_precopy_rounds = 3;
  config.post_ops = 12;
  config.clean_ops = 4;
  const harness::MigrationResult result = harness::run_migration(config);
  EXPECT_TRUE(result.restore_ok);
  EXPECT_TRUE(result.snapshot_identical);
  EXPECT_TRUE(result.final_snapshot_identical);
  EXPECT_TRUE(result.blackout_bounded);
  EXPECT_EQ(result.divergent_ops, 0u);
  EXPECT_EQ(result.steady_state_failures, 0u);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.pages_full_copy, 0u);
  EXPECT_GT(result.faults_injected, 0u);
  // Loss is bounded by the blackout window at the observed rate.
  EXPECT_LE(result.modeled_lost_packets, result.loss_bound_packets);
}

TEST(Migration, LiveMigrationUnderFaultsPacked) {
  harness::MigrationConfig config;
  config.seed = 0x6162;
  config.testbed.use_packed_rings = true;
  config.ops_per_round = 8;
  config.max_precopy_rounds = 3;
  config.post_ops = 12;
  config.clean_ops = 4;
  const harness::MigrationResult result = harness::run_migration(config);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.faults_injected, 0u);
}

}  // namespace
}  // namespace vfpga
