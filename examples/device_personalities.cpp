// Device personalities: the same VirtIO controller serving three device
// types — network, console, and block — by swapping only the UserLogic
// personality and its device-specific configuration structure. This is
// the paper's §IV-B point (and contribution 1: "added support for more
// VirtIO device types").
#include <cstdio>

#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/console_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/virtio/pci_caps.hpp"

namespace {

void describe(vfpga::core::UserLogic& logic, const char* name) {
  using namespace vfpga;
  mem::HostMemory memory;
  pcie::RootComplex rc{memory, pcie::LinkModel{}};
  core::VirtioDeviceFunction device{logic};
  rc.attach(device);
  device.connect(rc);
  const auto devices = pcie::enumerate_bus(rc);
  if (devices.size() != 1) {
    std::printf("%s: enumeration failed\n", name);
    return;
  }
  const auto& dev = devices.front();
  const auto layout = virtio::parse_virtio_capabilities(device.config());

  std::printf("%-8s  pci %04x:%04x  queues %u  device-cfg %u bytes  "
              "caps %s\n",
              name, dev.vendor_id, dev.device_id, logic.queue_count(),
              logic.device_config_size(),
              layout.has_value() ? "common+notify+isr+device" : "MISSING");
}

}  // namespace

int main() {
  using namespace vfpga;

  std::puts("== one controller, three device personalities ==\n");
  std::puts("What changes per device type: the PCI device ID, the number\n"
            "of queues, and the device-specific config structure. The\n"
            "virtqueue FSMs, DMA engine control, notify/ISR/MSI-X plumbing\n"
            "are shared (paper SIV-B).\n");

  core::NetDeviceLogic net;
  core::ConsoleDeviceLogic console;
  core::BlkDeviceLogic blk{core::BlkDeviceConfig{.capacity_sectors = 8192}};

  describe(net, "net");
  describe(console, "console");
  describe(blk, "blk");

  std::puts("\nEach personality binds a different in-kernel driver\n"
            "(virtio_net / virtio_console / virtio_blk) — none of which\n"
            "required writing or maintaining an FPGA-specific driver.");
  return 0;
}
