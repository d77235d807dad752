// Tests for the VirtIO-over-PCI plumbing: vendor capabilities, feature
// negotiation and the device-status state machine.
#include <gtest/gtest.h>

#include "vfpga/pcie/config_space.hpp"
#include "vfpga/virtio/feature_negotiation.hpp"
#include "vfpga/virtio/pci_caps.hpp"

namespace vfpga::virtio {
namespace {

VirtioPciLayout standard_layout() {
  VirtioPciLayout layout;
  layout.common = {0, 0x0000, commoncfg::kSize};
  layout.notify = {0, 0x1000, 8};
  layout.notify_off_multiplier = 4;
  layout.isr = {0, 0x0040, 1};
  layout.device_specific = {0, 0x0100, 20};
  return layout;
}

TEST(VirtioPciCaps, RoundTripThroughConfigSpace) {
  pcie::ConfigSpace config;
  add_virtio_capabilities(config, standard_layout());
  const auto parsed = parse_virtio_capabilities(config);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common.bar, 0);
  EXPECT_EQ(parsed->common.offset, 0x0000u);
  EXPECT_EQ(parsed->common.length, commoncfg::kSize);
  EXPECT_EQ(parsed->notify.offset, 0x1000u);
  EXPECT_EQ(parsed->notify_off_multiplier, 4u);
  EXPECT_EQ(parsed->isr.offset, 0x0040u);
  EXPECT_EQ(parsed->device_specific.offset, 0x0100u);
  EXPECT_EQ(parsed->device_specific.length, 20u);
}

TEST(VirtioPciCaps, MissingStructuresMeansNotVirtio) {
  pcie::ConfigSpace config;
  EXPECT_FALSE(parse_virtio_capabilities(config).has_value());
  // Only a common cap, no notify/ISR: still incomplete.
  VirtioPciLayout partial;
  partial.common = {0, 0, commoncfg::kSize};
  partial.notify = {0, 0x1000, 8};
  partial.isr = {0, 0x40, 1};
  add_virtio_capabilities(config, partial);
  EXPECT_TRUE(parse_virtio_capabilities(config).has_value());
}

TEST(VirtioPciCaps, CoexistsWithOtherCapabilities) {
  pcie::ConfigSpace config;
  config.add_capability(pcie::CapabilityId::PciExpress, Bytes(8, 0));
  add_virtio_capabilities(config, standard_layout());
  config.add_capability(pcie::CapabilityId::MsiX, Bytes(10, 0));
  const auto parsed = parse_virtio_capabilities(config);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->notify_off_multiplier, 4u);
}

TEST(VirtioIds, ModernDeviceIdMapping) {
  EXPECT_EQ(modern_pci_device_id(DeviceType::Net), 0x1041);
  EXPECT_EQ(modern_pci_device_id(DeviceType::Block), 0x1042);
  EXPECT_EQ(modern_pci_device_id(DeviceType::Console), 0x1043);
}

TEST(FeatureSet, WindowsSplitAt32Bits) {
  FeatureSet f;
  f.set(feature::net::kMac);       // bit 5
  f.set(feature::kVersion1);       // bit 32
  f.set(feature::kRingEventIdx);   // bit 29
  EXPECT_EQ(f.window(0), (1u << 5) | (1u << 29));
  EXPECT_EQ(f.window(1), 1u);
  EXPECT_EQ(f.window(2), 0u);

  FeatureSet g;
  g.set_window(0, f.window(0));
  g.set_window(1, f.window(1));
  EXPECT_EQ(g, f);
}

TEST(FeatureSet, SetAlgebra) {
  FeatureSet offered;
  offered.set(0).set(5).set(32);
  FeatureSet wanted;
  wanted.set(5).set(32);
  EXPECT_TRUE(wanted.subset_of(offered));
  EXPECT_FALSE(offered.subset_of(wanted));
  EXPECT_EQ(offered.intersect(wanted), wanted);
}

TEST(Negotiation, AcceptsSubsetWithVersion1) {
  FeatureSet offered;
  offered.set(feature::kVersion1).set(feature::net::kMac);
  FeatureSet selected;
  selected.set(feature::kVersion1);
  EXPECT_TRUE(feature_selection_acceptable(offered, selected));
}

TEST(Negotiation, RejectsUnofferedBits) {
  FeatureSet offered;
  offered.set(feature::kVersion1);
  FeatureSet selected;
  selected.set(feature::kVersion1).set(feature::net::kCsum);
  EXPECT_FALSE(feature_selection_acceptable(offered, selected));
}

TEST(Negotiation, RejectsLegacyDrivers) {
  FeatureSet offered;
  offered.set(feature::kVersion1).set(feature::net::kMac);
  FeatureSet selected;
  selected.set(feature::net::kMac);  // no VERSION_1: legacy
  EXPECT_FALSE(feature_selection_acceptable(offered, selected));
}

TEST(StatusMachine, HappyPathInitSequence) {
  DeviceStatusMachine machine;
  FeatureSet offered;
  offered.set(feature::kVersion1);
  FeatureSet selected = offered;

  machine.driver_writes_status(status::kAcknowledge, offered, selected);
  EXPECT_EQ(machine.status(), status::kAcknowledge);
  machine.driver_writes_status(status::kAcknowledge | status::kDriver,
                               offered, selected);
  machine.driver_writes_status(
      status::kAcknowledge | status::kDriver | status::kFeaturesOk, offered,
      selected);
  EXPECT_TRUE(machine.features_accepted());
  EXPECT_FALSE(machine.live());
  machine.driver_writes_status(status::kAcknowledge | status::kDriver |
                                   status::kFeaturesOk | status::kDriverOk,
                               offered, selected);
  EXPECT_TRUE(machine.live());
}

TEST(StatusMachine, RefusesBadFeatureSelection) {
  DeviceStatusMachine machine;
  FeatureSet offered;
  offered.set(feature::kVersion1);
  FeatureSet selected;
  selected.set(feature::kVersion1).set(feature::kRingPacked);  // not offered
  const u8 result = machine.driver_writes_status(
      status::kAcknowledge | status::kDriver | status::kFeaturesOk, offered,
      selected);
  EXPECT_EQ(result & status::kFeaturesOk, 0);
  EXPECT_FALSE(machine.features_accepted());
}

TEST(StatusMachine, ZeroWriteResets) {
  DeviceStatusMachine machine;
  FeatureSet f;
  f.set(feature::kVersion1);
  machine.driver_writes_status(status::kAcknowledge | status::kDriver, f, f);
  machine.driver_writes_status(0, f, f);
  EXPECT_EQ(machine.status(), 0);
}

TEST(Features, DescribeNetFeatures) {
  FeatureSet f;
  f.set(feature::kVersion1).set(feature::net::kMac);
  const std::string text = describe_net_features(f);
  EXPECT_NE(text.find("VERSION_1"), std::string::npos);
  EXPECT_NE(text.find("MAC"), std::string::npos);
  EXPECT_EQ(describe_net_features(FeatureSet{}), "(none)");
}

}  // namespace
}  // namespace vfpga::virtio
