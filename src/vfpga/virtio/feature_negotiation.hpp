// Device-status state machine and feature negotiation rules.
//
// VirtIO initialization follows a strict sequence (§3.1.1):
//   RESET -> ACKNOWLEDGE -> DRIVER -> (feature exchange) -> FEATURES_OK
//         -> (queue setup) -> DRIVER_OK.
// The device must reject FEATURES_OK when the driver selected features
// it did not offer. Both the FPGA-side controller and the host-side
// driver models drive their halves of this machine; the tracker below
// validates transitions so protocol violations abort loudly instead of
// producing silent nonsense timings.
#pragma once

#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::virtio {

class DeviceStatusMachine {
 public:
  /// Apply a driver write to the status register. Returns the resulting
  /// status byte (the device may refuse FEATURES_OK by leaving the bit
  /// clear, per §3.1.1 step 5).
  u8 driver_writes_status(u8 new_status, FeatureSet offered,
                          FeatureSet driver_selected);

  /// Writing zero resets the device.
  void reset();

  /// Device-internal error (§2.1.2): set DEVICE_NEEDS_RESET. The bit
  /// stays latched until the driver writes zero to reset the device.
  void device_error() { status_ |= status::kDeviceNeedsReset; }

  [[nodiscard]] u8 status() const { return status_; }
  [[nodiscard]] bool needs_reset() const {
    return (status_ & status::kDeviceNeedsReset) != 0;
  }
  [[nodiscard]] bool features_accepted() const {
    return (status_ & status::kFeaturesOk) != 0;
  }
  [[nodiscard]] bool live() const {
    return (status_ & status::kDriverOk) != 0;
  }
  [[nodiscard]] bool failed() const {
    return (status_ & status::kFailed) != 0;
  }

  /// Snapshot restore: reinstate a previously captured status byte
  /// without replaying the init sequence's transition checks.
  void restore_status(u8 status_byte) { status_ = status_byte; }

 private:
  u8 status_ = 0;
};

/// The legality rule used by the device when the driver sets
/// FEATURES_OK: every driver-selected bit must have been offered, and a
/// modern driver must select VERSION_1.
[[nodiscard]] bool feature_selection_acceptable(FeatureSet offered,
                                                FeatureSet selected);

}  // namespace vfpga::virtio
