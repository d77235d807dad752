#include "vfpga/virtio/feature_negotiation.hpp"

namespace vfpga::virtio {

bool feature_selection_acceptable(FeatureSet offered, FeatureSet selected) {
  if (!selected.subset_of(offered)) {
    return false;
  }
  return selected.has(feature::kVersion1);
}

u8 DeviceStatusMachine::driver_writes_status(u8 new_status, FeatureSet offered,
                                             FeatureSet driver_selected) {
  if (new_status == 0) {
    reset();
    return status_;
  }
  // Status bits accumulate; a driver never clears individual bits.
  u8 accepted = status_ | new_status;
  if ((new_status & status::kFeaturesOk) != 0 &&
      (status_ & status::kFeaturesOk) == 0) {
    if (!feature_selection_acceptable(offered, driver_selected)) {
      accepted = static_cast<u8>(accepted & ~status::kFeaturesOk);
    }
  }
  status_ = accepted;
  return status_;
}

void DeviceStatusMachine::reset() { status_ = 0; }

std::string describe_net_features(FeatureSet features) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) {
      out += '|';
    }
    out += name;
  };
  if (features.has(feature::kVersion1)) append("VERSION_1");
  if (features.has(feature::kRingEventIdx)) append("RING_EVENT_IDX");
  if (features.has(feature::kRingIndirectDesc)) append("RING_INDIRECT_DESC");
  if (features.has(feature::net::kCsum)) append("CSUM");
  if (features.has(feature::net::kGuestCsum)) append("GUEST_CSUM");
  if (features.has(feature::net::kMtu)) append("MTU");
  if (features.has(feature::net::kMac)) append("MAC");
  if (features.has(feature::net::kStatus)) append("STATUS");
  if (features.has(feature::net::kCtrlVq)) append("CTRL_VQ");
  return out.empty() ? "(none)" : out;
}

}  // namespace vfpga::virtio
