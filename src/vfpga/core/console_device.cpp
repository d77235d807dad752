#include "vfpga/core/console_device.hpp"

#include "vfpga/common/contract.hpp"

namespace vfpga::core {

using virtio::console::ConsoleConfigLayout;

u8 ConsoleDeviceLogic::device_config_read(u32 offset) const {
  switch (offset) {
    case ConsoleConfigLayout::kColsOffset:
      return static_cast<u8>(kConsoleCols & 0xff);
    case ConsoleConfigLayout::kColsOffset + 1:
      return static_cast<u8>(kConsoleCols >> 8);
    case ConsoleConfigLayout::kRowsOffset:
      return static_cast<u8>(kConsoleRows & 0xff);
    case ConsoleConfigLayout::kRowsOffset + 1:
      return static_cast<u8>(kConsoleRows >> 8);
    case ConsoleConfigLayout::kMaxPortsOffset:
      return 1;
    default:
      return 0;
  }
}

std::optional<UserLogic::Response> ConsoleDeviceLogic::process(
    u16 queue, ConstByteSpan payload, u32 /*writable_capacity*/,
    const ChainMeta& /*meta*/) {
  VFPGA_EXPECTS(queue == virtio::console::kTxQueue);
  Response response;
  response.payload.assign(payload.begin(), payload.end());
  response.target_queue = virtio::console::kRxQueue;
  response.processing_cycles =
      kConsoleFixedCycles + ((payload.size() + 7) / 8) * kConsoleCyclesPerBeat;
  bytes_echoed_ += payload.size();
  return response;
}

}  // namespace vfpga::core
