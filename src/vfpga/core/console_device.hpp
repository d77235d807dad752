// virtio-console personality — the device type of the prior work [14]
// that this system extends. Echoes every byte the host transmits back on
// the receive queue, demonstrating that swapping personalities changes
// only the device-specific structure and queue semantics (§IV-B).
#pragma once

#include "vfpga/core/user_logic.hpp"
#include "vfpga/virtio/console_defs.hpp"

namespace vfpga::core {

/// Console geometry the personality always advertises (F_SIZE).
inline constexpr u16 kConsoleCols = 80;
inline constexpr u16 kConsoleRows = 25;

/// Echo pipeline cost: fixed cycles + cycles per 8-byte beat.
inline constexpr u64 kConsoleFixedCycles = 24;
inline constexpr u64 kConsoleCyclesPerBeat = 1;

class ConsoleDeviceLogic final : public UserLogic {
 public:
  [[nodiscard]] virtio::DeviceType device_type() const override {
    return virtio::DeviceType::Console;
  }
  [[nodiscard]] virtio::FeatureSet device_features() const override {
    virtio::FeatureSet f;
    f.set(virtio::feature::console::kSize);
    return f;
  }
  [[nodiscard]] u16 queue_count() const override { return 2; }
  [[nodiscard]] u32 device_config_size() const override {
    return virtio::console::ConsoleConfigLayout::kSize;
  }
  [[nodiscard]] u8 device_config_read(u32 offset) const override;
  std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                  u32 writable_capacity,
                                  const ChainMeta& meta) override;

  [[nodiscard]] u64 bytes_echoed() const { return bytes_echoed_; }

 private:
  u64 bytes_echoed_ = 0;
};

}  // namespace vfpga::core
