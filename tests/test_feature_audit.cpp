// Feature-bit audit: every bit a device model OFFERS must be backed by
// implemented behavior. features.hpp declares bits the spec defines but
// this library does not implement (F_NOTIFICATION_DATA,
// NET_F_SPEED_DUPLEX, F_ACCESS_PLATFORM, ...); offering one would invite
// a driver to negotiate semantics the device cannot deliver. These tests
// pin the offered sets to explicit whitelists of implemented bits, over
// every policy/topology combination that changes an offer, check that
// the net driver requests none of the unimplemented bits even when they
// are offered, and verify that a bit sneaking into the negotiated set
// without an offer behind it fails loudly at DRIVER_OK rather than
// silently dropping semantics.
#include <gtest/gtest.h>

#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/hostos/virtio_net_driver.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/features.hpp"

namespace vfpga::core {
namespace {

using virtio::FeatureSet;
namespace feature = virtio::feature;

// Transport bits the controller implements (all policy-gated except
// VERSION_1).
FeatureSet implemented_transport() {
  FeatureSet f;
  f.set(feature::kVersion1);
  f.set(feature::kRingEventIdx);
  f.set(feature::kRingIndirectDesc);
  f.set(feature::kRingPacked);
  return f;
}

// Device-class bits with behavior behind them (see the device logics'
// process()/config-space implementations).
FeatureSet implemented_net() {
  FeatureSet f;
  f.set(feature::net::kCsum);
  f.set(feature::net::kGuestCsum);
  f.set(feature::net::kMtu);
  f.set(feature::net::kMac);
  f.set(feature::net::kStatus);
  return f;
}

FeatureSet implemented_blk() {
  FeatureSet f;
  f.set(feature::blk::kSizeMax);
  f.set(feature::blk::kSegMax);
  f.set(feature::blk::kBlkSize);
  f.set(feature::blk::kFlush);
  f.set(feature::blk::kMq);
  return f;
}

FeatureSet implemented_console() {
  FeatureSet f;
  f.set(feature::console::kSize);
  return f;
}

// Bits features.hpp defines but nothing implements: they must never be
// offered, whatever the configuration. Device-class bit namespaces
// overlap (net::kGuestCsum and blk::kSizeMax are both bit 1), so the
// unimplemented set is per class, each including the unimplemented
// transport bits.
FeatureSet unimplemented_transport() {
  FeatureSet f;
  f.set(feature::kNotificationData);
  f.set(feature::kAccessPlatform);
  return f;
}

FeatureSet unimplemented_net() {
  FeatureSet f = unimplemented_transport();
  f.set(feature::net::kSpeedDuplex);
  f.set(feature::net::kNotfCoal);
  // The segmentation offloads and mergeable RX buffers: every frame
  // fits one buffer at the device MTU, and the device segments nothing.
  f.set(feature::net::kGuestTso4);
  f.set(feature::net::kGuestUfo);
  f.set(feature::net::kHostTso4);
  f.set(feature::net::kHostUfo);
  f.set(feature::net::kMrgRxbuf);
  // Multi-queue and its control virtqueue: the device has one RX/TX
  // pair and no control queue.
  f.set(feature::net::kMq);
  f.set(feature::net::kCtrlVq);
  return f;
}

FeatureSet unimplemented_blk() {
  FeatureSet f = unimplemented_transport();
  f.set(feature::blk::kRo);
  f.set(feature::blk::kDiscard);
  f.set(feature::blk::kWriteZeroes);
  return f;
}

FeatureSet unimplemented_console() {
  FeatureSet f = unimplemented_transport();
  f.set(feature::console::kMultiport);
  return f;
}

TEST(FeatureAudit, NetLogicOffersOnlyImplementedBits) {
  for (const bool csum : {false, true}) {
    NetDeviceConfig config;
    config.offer_csum = csum;
    NetDeviceLogic logic{config};
    const FeatureSet offered = logic.device_features();
    EXPECT_TRUE(offered.subset_of(implemented_net()))
        << "csum=" << csum << " offered=" << std::hex << offered.bits();
    EXPECT_EQ(offered.intersect(unimplemented_net()), FeatureSet{});
    // The whole offer, pinned: MAC, STATUS, MTU and GUEST_CSUM (the echo
    // logic always produces full checksums) always; CSUM with the
    // checksum offer.
    FeatureSet expected;
    expected.set(feature::net::kMac);
    expected.set(feature::net::kStatus);
    expected.set(feature::net::kMtu);
    expected.set(feature::net::kGuestCsum);
    if (csum) {
      expected.set(feature::net::kCsum);
    }
    EXPECT_EQ(offered, expected) << "csum=" << csum;
    // One RX/TX pair, no control queue.
    EXPECT_EQ(logic.queue_count(), 2);
  }
}

/// A net personality that offers every virtio-net bit features.hpp
/// defines, so the set the driver negotiates with it is exactly the set
/// the driver requests. Its config structure is the echo device's.
class OfferEveryNetBitLogic final : public UserLogic {
 public:
  [[nodiscard]] virtio::DeviceType device_type() const override {
    return virtio::DeviceType::Net;
  }
  [[nodiscard]] FeatureSet device_features() const override {
    return FeatureSet{(implemented_net().bits() | unimplemented_net().bits()) &
                      ~unimplemented_transport().bits()};
  }
  [[nodiscard]] u16 queue_count() const override { return 2; }
  [[nodiscard]] u32 device_config_size() const override {
    return echo_.device_config_size();
  }
  [[nodiscard]] u8 device_config_read(u32 offset) const override {
    return echo_.device_config_read(offset);
  }
  std::optional<Response> process(u16 /*queue*/, ConstByteSpan /*payload*/,
                                  u32 /*writable_capacity*/,
                                  const ChainMeta& /*meta*/) override {
    return std::nullopt;
  }

 private:
  NetDeviceLogic echo_;
};

// The driver's side of the audit: offered every net bit, it requests
// none of the never-offered ones — in particular neither MQ nor
// CTRL_VQ, so it builds no control queue and one RX/TX pair.
TEST(FeatureAudit, NetDriverNeverRequestsUnimplementedBits) {
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  OfferEveryNetBitLogic logic;
  ASSERT_TRUE(logic.device_features().has(feature::net::kMq));
  ASSERT_TRUE(logic.device_features().has(feature::net::kCtrlVq));
  VirtioDeviceFunction device{logic};
  hostos::InterruptController irq;
  rc.set_irq_sink([&](u32 data, sim::SimTime at) { irq.deliver(data, at); });
  rc.attach(device);
  device.connect(rc);
  const auto devices = pcie::enumerate_bus(rc);
  ASSERT_EQ(devices.size(), 1u);

  sim::Xoshiro256 rng{0xfea9};
  sim::NoiseModel noise{sim::NoiseConfig{.enabled = false}};
  hostos::HostThread thread{rng, hostos::CostModelConfig::fedora_defaults(),
                            noise};
  hostos::VirtioNetDriver driver;
  hostos::VirtioPciTransport::BindContext ctx;
  ctx.rc = &rc;
  ctx.device = &device;
  ctx.enumerated = &devices.front();
  ctx.irq = &irq;
  ASSERT_TRUE(driver.probe(ctx, thread));

  const FeatureSet negotiated = device.negotiated_features();
  EXPECT_EQ(negotiated.intersect(unimplemented_net()), FeatureSet{})
      << std::hex << negotiated.bits();
  EXPECT_TRUE(negotiated.has(feature::net::kCsum));
  EXPECT_TRUE(negotiated.has(feature::net::kMac));
}

TEST(FeatureAudit, BlkAndConsoleOfferOnlyImplementedBits) {
  BlkDeviceLogic blk;
  EXPECT_TRUE(blk.device_features().subset_of(implemented_blk()));
  EXPECT_EQ(blk.device_features().intersect(unimplemented_blk()),
            FeatureSet{});
  ConsoleDeviceLogic console;
  EXPECT_TRUE(console.device_features().subset_of(implemented_console()));
  EXPECT_EQ(console.device_features().intersect(unimplemented_console()),
            FeatureSet{});
}

// The controller adds the transport bits on top of the device-class
// offer: EVENT_IDX and INDIRECT_DESC always, RING_PACKED when the policy
// offers it.
TEST(FeatureAudit, ControllerOfferMatchesPolicyExactly) {
  for (const bool packed : {false, true}) {
    NetDeviceLogic logic{{}};
    ControllerConfig config;
    config.policy.offer_packed = packed;
    VirtioDeviceFunction device{logic, config};

    const FeatureSet offered = device.offered_features();
    const FeatureSet implemented{implemented_transport().bits() |
                                 implemented_net().bits()};
    EXPECT_TRUE(offered.subset_of(implemented)) << std::hex << offered.bits();
    EXPECT_TRUE(offered.has(feature::kVersion1));
    EXPECT_TRUE(offered.has(feature::kRingEventIdx));
    EXPECT_TRUE(offered.has(feature::kRingIndirectDesc));
    EXPECT_EQ(offered.has(feature::kRingPacked), packed);
    EXPECT_EQ(offered.intersect(unimplemented_net()), FeatureSet{});
  }
}

// End-to-end: after a real bring-up the NEGOTIATED set is a subset of
// the offer, contains nothing unimplemented, and the ring-format bit
// matches the ring format actually in use.
TEST(FeatureAudit, NegotiatedSetMatchesImplementedBehavior) {
  for (const bool packed : {false, true}) {
    TestbedOptions options;
    options.seed = 0xfea7;
    options.use_packed_rings = packed;
    VirtioNetTestbed bed{options};

    const FeatureSet offered = bed.device().offered_features();
    const FeatureSet negotiated = bed.device().negotiated_features();
    EXPECT_TRUE(negotiated.subset_of(offered));
    EXPECT_EQ(negotiated.intersect(unimplemented_net()), FeatureSet{});
    EXPECT_TRUE(negotiated.has(feature::kVersion1));
    EXPECT_EQ(negotiated.has(feature::kRingPacked), packed);

    // The negotiated personality must actually move packets.
    Bytes payload(128, 7);
    EXPECT_TRUE(bed.udp_round_trip(payload).ok);
  }
}

// The zero-copy datapath's feature is offered AND negotiable end to
// end: a driver on the indirect sg path gets INDIRECT_DESC, and traffic
// flows through it.
TEST(FeatureAudit, ZeroCopyFeaturesNegotiateEndToEnd) {
  for (const bool packed : {false, true}) {
    TestbedOptions options;
    options.seed = 0xfea8;
    options.use_packed_rings = packed;
    options.datapath.tx_path =
        hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect;
    VirtioNetTestbed bed{options};

    const FeatureSet negotiated = bed.device().negotiated_features();
    EXPECT_TRUE(negotiated.has(feature::kRingIndirectDesc));

    Bytes payload(128, 9);
    EXPECT_TRUE(bed.udp_round_trip(payload).ok);
  }
}

// A negotiated-but-unoffered device-class bit must abort at DRIVER_OK:
// some layer invented a feature nothing implements, and the device
// logic's audit is the last line of defense. The segmentation offloads
// and MRG_RXBUF are such bits.
TEST(FeatureAuditDeathTest, UnofferedNegotiatedBitFailsLoudly) {
  for (const u32 bit :
       {feature::net::kSpeedDuplex, feature::net::kGuestTso4,
        feature::net::kGuestUfo, feature::net::kHostTso4,
        feature::net::kHostUfo, feature::net::kMrgRxbuf}) {
    SCOPED_TRACE(bit);
    NetDeviceLogic logic{{}};
    FeatureSet bogus = logic.device_features();
    ASSERT_FALSE(bogus.has(bit));
    bogus.set(bit);
    EXPECT_DEATH(logic.on_driver_ready(bogus), "");
  }
}

// Config-space consistency for virtio-blk multi-queue: a driver that
// negotiated VIRTIO_BLK_F_MQ will read num_queues and spread requests
// over that many rings. A device whose config structure says one queue
// cannot honour the bit — the DRIVER_OK audit must die rather than let
// the driver kick rings that do not exist.
TEST(FeatureAuditDeathTest, BlkMqWithoutNumQueuesConfigDies) {
  BlkDeviceConfig config;
  config.num_queues = 1;  // single-queue device: MQ is never offered
  BlkDeviceLogic logic{config};
  ASSERT_FALSE(logic.device_features().has(feature::blk::kMq));
  FeatureSet bogus = logic.device_features();
  bogus.set(feature::blk::kMq);
  EXPECT_DEATH(logic.on_driver_ready(bogus), "");
}

// The complement: a genuinely multi-queue device accepts the same bit.
TEST(FeatureAudit, BlkMqOfferFollowsNumQueues) {
  BlkDeviceConfig config;
  config.num_queues = 4;
  BlkDeviceLogic logic{config};
  EXPECT_TRUE(logic.device_features().has(feature::blk::kMq));
  EXPECT_EQ(logic.queue_count(), 4);
  logic.on_driver_ready(logic.device_features());  // must not die
}

}  // namespace
}  // namespace vfpga::core
