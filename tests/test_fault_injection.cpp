// Failure-injection tests: corrupted descriptors, protocol violations,
// resource exhaustion, masked and lost interrupts — the error paths a
// robust driver/device pair must survive.
#include <gtest/gtest.h>

#include <array>

#include "support/test_driver.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/harness/fault_campaign.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/packed_driver.hpp"
#include "vfpga/virtio/packed_layout.hpp"
#include "vfpga/xdma/host_driver.hpp"

namespace vfpga {
namespace {

// ---- XDMA: corrupted descriptor ring ---------------------------------------------

TEST(FaultXdma, CorruptDescriptorStopsEngineAndDriverRecovers) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  core::XdmaTestbed bed{options};

  // A good transfer first.
  ASSERT_TRUE(bed.write_read_round_trip(512).ok);

  // Sabotage: engine pointed at garbage (magic mismatch).
  const HostAddr garbage = bed.root_complex().memory().allocate(64, 32);
  bed.root_complex().memory().fill(garbage, 0xff, 64);
  bed.device().h2c().set_descriptor_address(garbage);
  const auto result = bed.device().h2c().run(sim::SimTime{});
  EXPECT_TRUE(result.error);
  EXPECT_NE(bed.device().h2c().status() & xdma::regs::kStatusMagicStopped,
            0u);

  // The driver reprograms a proper descriptor; traffic resumes.
  bed.device().h2c().clear_status();
  EXPECT_TRUE(bed.write_read_round_trip(512).ok);
}

// ---- VirtIO: negotiation violations ------------------------------------------------

struct ConsoleRig {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::ConsoleDeviceLogic logic;
  core::VirtioDeviceFunction device{logic};
  hostos::InterruptController irq;
  std::optional<testing_support::TestDriver> driver;

  ConsoleRig() {
    rc.set_irq_sink([&](u32 d, sim::SimTime at) { irq.deliver(d, at); });
    rc.attach(device);
    device.connect(rc);
    [&] { ASSERT_EQ(pcie::enumerate_bus(rc).size(), 1u); }();
    driver.emplace(rc, device, irq);
  }
};

TEST(FaultVirtio, SelectingUnofferedFeatureRefusesFeaturesOk) {
  ConsoleRig rig;
  using namespace virtio;
  auto& d = *rig.driver;
  d.wr32(commoncfg::kDeviceStatus, 0);
  d.wr32(commoncfg::kDeviceStatus, status::kAcknowledge | status::kDriver);
  // Select VERSION_1 plus a bit the console device never offered
  // (bit 15 = MRG_RXBUF, a net-only feature).
  d.wr32(commoncfg::kDriverFeatureSelect, 0);
  d.wr32(commoncfg::kDriverFeature, 1u << feature::net::kMrgRxbuf);
  d.wr32(commoncfg::kDriverFeatureSelect, 1);
  d.wr32(commoncfg::kDriverFeature, 1u);  // VERSION_1 (bit 32)
  d.wr32(commoncfg::kDeviceStatus,
         status::kAcknowledge | status::kDriver | status::kFeaturesOk);
  EXPECT_EQ(rig.device.device_status() & status::kFeaturesOk, 0);
}

TEST(FaultVirtio, LegacyDriverWithoutVersion1Refused) {
  ConsoleRig rig;
  using namespace virtio;
  auto& d = *rig.driver;
  d.wr32(commoncfg::kDeviceStatus, 0);
  d.wr32(commoncfg::kDeviceStatus, status::kAcknowledge | status::kDriver);
  d.wr32(commoncfg::kDriverFeatureSelect, 0);
  d.wr32(commoncfg::kDriverFeature, 0);
  d.wr32(commoncfg::kDriverFeatureSelect, 1);
  d.wr32(commoncfg::kDriverFeature, 0);  // no VERSION_1
  d.wr32(commoncfg::kDeviceStatus,
         status::kAcknowledge | status::kDriver | status::kFeaturesOk);
  EXPECT_EQ(rig.device.device_status() & status::kFeaturesOk, 0);
}

TEST(FaultVirtio, NotifyOnDisabledQueueIsIgnored) {
  ConsoleRig rig;
  rig.driver->initialize(2);
  // Queue index past the personality's count would hit the MSI-X window;
  // a *disabled* valid queue is the interesting case: reset, then notify.
  rig.driver->wr32(virtio::commoncfg::kDeviceStatus, 0);
  rig.driver->notify(0);
  EXPECT_EQ(rig.device.frames_processed(), 0u);
}

// ---- RX exhaustion under burst ------------------------------------------------------

TEST(FaultVirtio, RxExhaustionDropsThenRecovers) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  options.controller.max_queue_size = 4;  // tiny RX ring
  core::VirtioNetTestbed bed{options};

  // Burst 7 sends without receiving: only 4 RX buffers exist, so some
  // responses are dropped at the device ("no RX buffer available").
  const Bytes payload(64, 1);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
  }
  int received = 0;
  while (bed.socket().recvfrom_nonblock(bed.thread()).has_value()) {
    ++received;
  }
  EXPECT_EQ(received, 4);  // ring depth
  EXPECT_EQ(bed.net_logic().udp_echoes(), 7u);  // device echoed all...
  // ...but 3 echoes had nowhere to land. The stack recovered buffers, so
  // a fresh request-response works.
  const auto rt = bed.udp_round_trip(payload);
  EXPECT_TRUE(rt.ok);
}

// ---- MSI-X masking across the full device --------------------------------------------

TEST(FaultVirtio, MaskedVectorDefersInterruptUntilUnmask) {
  ConsoleRig rig;
  rig.driver->initialize(2);
  const u32 rx_vector =
      rig.driver->queue_vector(virtio::console::kRxQueue);

  // Mask the RX vector (table entry 1), then generate traffic.
  const BarOffset entry1 =
      core::kMsixTableOffset + 1 * pcie::kMsixEntryBytes;
  rig.device.bar_write(0, entry1 + pcie::kMsixEntryControl,
                       pcie::kMsixControlMasked, 4, sim::SimTime{});

  const HostAddr rx_buf = rig.memory.allocate(64);
  const virtio::ChainBuffer rx{rx_buf, 64, true};
  rig.driver->vq(virtio::console::kRxQueue).add_chain(std::span{&rx, 1}, 1);
  rig.driver->vq(virtio::console::kRxQueue).publish();
  const HostAddr tx_buf = rig.memory.allocate(8);
  rig.memory.fill(tx_buf, 0x42, 8);
  const virtio::ChainBuffer tx{tx_buf, 8, false};
  rig.driver->vq(virtio::console::kTxQueue).add_chain(std::span{&tx, 1}, 2);
  rig.driver->vq(virtio::console::kTxQueue).publish();
  rig.driver->notify(virtio::console::kTxQueue);

  // Data landed but the interrupt is pending in the device, not
  // delivered to the host.
  EXPECT_TRUE(rig.driver->vq(virtio::console::kRxQueue).used_pending());
  EXPECT_FALSE(rig.irq.pending(rx_vector));

  // Unmask: the pending interrupt flushes.
  rig.device.bar_write(0, entry1 + pcie::kMsixEntryControl, 0, 4,
                       sim::SimTime{} + sim::microseconds(500));
  EXPECT_TRUE(rig.irq.pending(rx_vector));
}

// ---- FaultPlane unit behaviour -----------------------------------------------------

TEST(FaultPlaneUnit, ZeroRateNeverInjects) {
  fault::FaultPlane plane{fault::FaultConfig{}};
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(plane.should_inject(fault::FaultClass::kTlpDrop));
  }
  EXPECT_EQ(plane.total_injected(), 0u);
}

TEST(FaultPlaneUnit, RateOneAlwaysInjectsAndCountsPerClass) {
  fault::FaultConfig config;
  config.set_rate(fault::FaultClass::kDmaPoison, 1.0);
  fault::FaultPlane plane{config};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(plane.should_inject(fault::FaultClass::kDmaPoison));
  }
  EXPECT_FALSE(plane.should_inject(fault::FaultClass::kTlpDrop));
  EXPECT_EQ(plane.injected(fault::FaultClass::kDmaPoison), 10u);
  EXPECT_EQ(plane.total_injected(), 10u);
}

TEST(FaultPlaneUnit, DisarmedPlaneIsQuiet) {
  fault::FaultConfig config;
  config.set_rate(fault::FaultClass::kEngineHalt, 1.0);
  fault::FaultPlane plane{config};
  plane.set_armed(false);
  EXPECT_FALSE(plane.should_inject(fault::FaultClass::kEngineHalt));
  EXPECT_EQ(plane.total_injected(), 0u);
  plane.set_armed(true);
  EXPECT_TRUE(plane.should_inject(fault::FaultClass::kEngineHalt));
}

TEST(FaultPlaneUnit, CorruptChangesExactlyOneByte) {
  fault::FaultConfig config;
  config.seed = 7;
  fault::FaultPlane plane{config};
  Bytes data(128, 0x5a);
  const Bytes before = data;
  plane.corrupt(ByteSpan{data});
  int changed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    changed += data[i] != before[i] ? 1 : 0;
  }
  EXPECT_EQ(changed, 1);
}

// ---- packed ring: forged / corrupt completions --------------------------------------

namespace pk = virtio::packed;

struct PackedRingRig {
  static constexpr u16 kQueueSize = 8;

  mem::HostMemory memory;
  std::optional<virtio::PackedVirtqueueDriver> ring;

  PackedRingRig() {
    virtio::FeatureSet features;
    features.set(virtio::feature::kVersion1);
    features.set(virtio::feature::kRingPacked);
    ring.emplace(memory, kQueueSize, features);
  }

  /// Forge a device-written used descriptor at the slot the driver will
  /// harvest next (slot 0, first used-wrap epoch) — simulating a device
  /// that scribbled a completion with corrupt flags/id fields.
  void forge_used(u16 id, u32 written) {
    const HostAddr entry = ring->ring_addresses().desc + pk::desc_offset(0);
    memory.write_le32(entry + pk::kDescLenOffset, written);
    memory.write_le16(entry + pk::kDescIdOffset, id);
    memory.write_le16(entry + pk::kDescFlagsOffset, pk::used_flags(true));
  }
};

TEST(FaultPackedRing, OutOfRangeBufferIdMarksRingBroken) {
  PackedRingRig rig;
  const HostAddr buf = rig.memory.allocate(64);
  const virtio::ChainBuffer b{buf, 64, false};
  ASSERT_TRUE(rig.ring->add_chain(std::span{&b, 1}, 1).has_value());
  rig.ring->publish();
  rig.forge_used(PackedRingRig::kQueueSize + 3, 0);
  EXPECT_TRUE(rig.ring->used_pending());
  EXPECT_FALSE(rig.ring->harvest().has_value());
  EXPECT_TRUE(rig.ring->broken());
}

TEST(FaultPackedRing, CompletionForUnexposedIdMarksRingBroken) {
  PackedRingRig rig;
  // id 2 is in range but the driver never exposed it: a replayed or
  // fabricated completion. Harvest refuses and flags the ring.
  rig.forge_used(2, 16);
  EXPECT_FALSE(rig.ring->harvest().has_value());
  EXPECT_TRUE(rig.ring->broken());
}

TEST(FaultPackedRing, StaleWrapEpochCompletionIsIgnored) {
  PackedRingRig rig;
  // AVAIL/USED bits matching the *previous* wrap epoch (both clear while
  // the driver's used wrap counter is still 1): a device desynchronized
  // on the wrap counter must not have its descriptor harvested.
  const HostAddr entry = rig.ring->ring_addresses().desc + pk::desc_offset(0);
  rig.memory.write_le16(entry + pk::kDescIdOffset, 0);
  rig.memory.write_le16(entry + pk::kDescFlagsOffset, pk::used_flags(false));
  EXPECT_FALSE(rig.ring->used_pending());
  EXPECT_FALSE(rig.ring->harvest().has_value());
  EXPECT_FALSE(rig.ring->broken());
}

// ---- recovery: virtio-net watchdog + lost-notify polling ----------------------------

TEST(FaultRecovery, WatchdogIdlesOnHealthyQueue) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  core::VirtioNetTestbed bed{options};
  ASSERT_TRUE(bed.udp_round_trip(Bytes(128, 7)).ok);
  EXPECT_EQ(bed.driver().tx_watchdog(bed.thread()),
            hostos::VirtioNetDriver::WatchdogAction::kNone);
  EXPECT_EQ(bed.driver().device_resets(), 0u);
}

TEST(FaultRecovery, LostNotifyRecoveredByPollingWithoutReset) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  options.fault.set_rate(fault::FaultClass::kNotifyLost, 1.0);
  core::VirtioNetTestbed bed{options};
  ASSERT_NE(bed.fault_plane(), nullptr);

  const Bytes payload(200, 0x3c);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  // Every MSI-X message is dropped: the echo sits in the used ring with
  // no interrupt delivered. The interrupt-less poll path harvests it —
  // no device reset required for this fault class.
  EXPECT_FALSE(bed.socket().recvfrom_nonblock(bed.thread()).has_value());
  EXPECT_GT(bed.stack().poll_rx(bed.thread()), 0u);
  const auto got = bed.socket().recvfrom_nonblock(bed.thread());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(bed.driver().device_resets(), 0u);
  EXPECT_GT(bed.fault_plane()->injected(fault::FaultClass::kNotifyLost), 0u);
}

// The RX queue's MSI-X message dies at the device, so no interrupt
// reaches the host: each echo lands in the used ring unannounced and the
// interrupt-less poll picks it up, without a device reset.
TEST(FaultRecovery, LostQueueInterruptRecoveredByPolling) {
  core::TestbedOptions options;
  options.fault.seed = 78;
  options.fault.set_rate(fault::FaultClass::kQueueIrqLost, 1.0);
  core::VirtioNetTestbed bed{options};
  const u64 irqs_before = bed.irq().delivered_count();

  for (u32 i = 0; i < 8; ++i) {
    const Bytes payload(64, static_cast<u8>(i));
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload));
    EXPECT_FALSE(bed.socket().recvfrom(bed.thread()).has_value());
    EXPECT_EQ(bed.stack().poll_rx(bed.thread()), 1u);
    const auto got = bed.socket().recvfrom_nonblock(bed.thread());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, payload);
  }
  EXPECT_EQ(bed.device().queue_irqs_lost(), 8u);
  EXPECT_EQ(bed.irq().delivered_count(), irqs_before);
  EXPECT_EQ(bed.driver().device_resets(), 0u);
}

TEST(FaultRecovery, DescriptorCorruptionEscalatesToDeviceReset) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  options.fault.set_rate(fault::FaultClass::kDescCorrupt, 1.0);
  core::VirtioNetTestbed bed{options};
  ASSERT_NE(bed.fault_plane(), nullptr);

  // The TX descriptor fetch corrupts; the device refuses the chain and
  // latches DEVICE_NEEDS_RESET. No echo comes back.
  const Bytes payload(200, 0x11);
  ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                  bed.options().fpga_udp_port, payload));
  EXPECT_FALSE(bed.socket().recvfrom_nonblock(bed.thread()).has_value());
  EXPECT_GT(bed.fault_plane()->injected(fault::FaultClass::kDescCorrupt), 0u);

  // Watchdog observes NEEDS_RESET and runs the full recovery ladder:
  // reset -> renegotiate -> requeue. Traffic then flows again.
  bed.fault_plane()->set_armed(false);
  EXPECT_EQ(bed.driver().tx_watchdog(bed.thread()),
            hostos::VirtioNetDriver::WatchdogAction::kReset);
  EXPECT_EQ(bed.driver().device_resets(), 1u);
  EXPECT_TRUE(bed.udp_round_trip(payload).ok);
}

// ---- recovery: XDMA engine halt + lost completion interrupt -------------------------

TEST(FaultRecovery, XdmaEngineHaltBoundedFailureThenRecovery) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  options.fault.set_rate(fault::FaultClass::kEngineHalt, 1.0);
  core::XdmaTestbed bed{options};
  ASSERT_NE(bed.fault_plane(), nullptr);

  // Every restart attempt halts again; the bounded retry ladder gives up
  // instead of hanging.
  EXPECT_FALSE(bed.write_read_round_trip(512).ok);
  EXPECT_GT(bed.driver().engine_restarts(), 0u);

  // Disarmed, the next transfer succeeds: halt recovery (status
  // read-to-clear + descriptor rebuild) left the engine usable.
  bed.fault_plane()->set_armed(false);
  EXPECT_TRUE(bed.write_read_round_trip(512).ok);
}

TEST(FaultRecovery, XdmaLostCompletionIrqDetectedByStatusRead) {
  core::TestbedOptions options;
  options.noise.enabled = false;
  options.fault.set_rate(fault::FaultClass::kNotifyLost, 1.0);
  core::XdmaTestbed bed{options};
  ASSERT_NE(bed.fault_plane(), nullptr);

  // The completion MSI-X never arrives; the driver's timeout path reads
  // engine status, sees DescStopped without a halt, and completes the
  // transfer without restarting the engine.
  EXPECT_TRUE(bed.write_read_round_trip(1024).ok);
  EXPECT_GT(bed.driver().lost_completion_irqs(), 0u);
  EXPECT_EQ(bed.driver().engine_restarts(), 0u);
}

// ---- campaign smoke -----------------------------------------------------------------

TEST(FaultCampaign, SmokeSweepHoldsInvariants) {
  harness::CampaignConfig config;
  config.runs_per_class = 2;
  config.ops_per_run = 4;
  config.clean_ops = 2;
  const auto result = harness::run_fault_campaign(config);
  ASSERT_FALSE(result.classes.empty());
  EXPECT_TRUE(result.ok());
  for (const auto& report : result.classes) {
    EXPECT_EQ(report.runs, config.runs_per_class);
    EXPECT_EQ(report.hangs, 0u);
    EXPECT_EQ(report.corruptions, 0u);
    EXPECT_EQ(report.steady_state_failures, 0u);
  }
}

}  // namespace
}  // namespace vfpga
