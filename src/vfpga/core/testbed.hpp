// Complete assembled testbeds for the paper's two experimental setups.
//
// VirtioNetTestbed: host memory + PCIe root complex + the VirtIO
// controller endpoint (net personality) + enumeration + the virtio-net
// driver + kernel netstack + a UDP test socket — §III-B.1.
//
// XdmaTestbed: the same substrate with the XDMA example design + the
// vendor character-device driver + h2c/c2h device files — §III-B.2.
// Both share identical link and noise models, the paper's control.
#pragma once

#include <memory>

#include "vfpga/core/blk_device.hpp"
#include "vfpga/core/net_device.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/hostos/char_device.hpp"
#include "vfpga/hostos/netstack.hpp"
#include "vfpga/hostos/socket_api.hpp"
#include "vfpga/hostos/virtio_blk_driver.hpp"
#include "vfpga/pcie/enumeration.hpp"
#include "vfpga/xdma/host_driver.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::core {

struct TestbedOptions {
  u64 seed = 0x5eed;
  pcie::LinkConfig link{};
  sim::NoiseConfig noise{};
  hostos::CostModelConfig costs = hostos::CostModelConfig::fedora_defaults();
  ControllerConfig controller{};
  NetDeviceConfig net{};
  /// Negotiate VIRTIO_F_RING_PACKED end-to-end (device offer + driver
  /// acceptance). Default off: the paper's controller uses split rings.
  bool use_packed_rings = false;
  /// Driver datapath: TX descriptor strategy (bounce copy vs zero-copy
  /// indirect scatter-gather). The default is the paper's driver.
  hostos::VirtioNetDriver::DatapathOptions datapath{};
  /// The test socket's port and the FPGA's echo port.
  static constexpr u16 udp_port = 4791;
  static constexpr u16 fpga_udp_port = 9000;
  /// Fault-injection configuration. A FaultPlane is instantiated and
  /// wired through every layer only when at least one rate is non-zero;
  /// the all-zero default leaves the datapath untouched (bit-identical
  /// to a build without fault hooks).
  fault::FaultConfig fault{};
  /// Attach a second PCIe function: the virtio-blk personality plus its
  /// front-end driver, sharing the host thread, link and interrupt
  /// controller. Default off — the net-only bed stays bit-identical to
  /// a build without the storage subsystem.
  bool attach_blk = false;
  BlkDeviceConfig blk{};
  hostos::VirtioBlkDriver::Options blk_driver{};
};

class VirtioNetTestbed {
 public:
  explicit VirtioNetTestbed(TestbedOptions options = {});

  [[nodiscard]] hostos::HostThread& thread() { return *thread_; }
  [[nodiscard]] VirtioDeviceFunction& device() { return *device_; }
  [[nodiscard]] NetDeviceLogic& net_logic() { return *net_logic_; }
  [[nodiscard]] hostos::VirtioNetDriver& driver() { return driver_; }
  [[nodiscard]] hostos::KernelNetstack& stack() { return *stack_; }
  [[nodiscard]] hostos::UdpSocket& socket() { return *socket_; }
  [[nodiscard]] hostos::InterruptController& irq() { return irq_; }
  [[nodiscard]] pcie::RootComplex& root_complex() { return *rc_; }
  [[nodiscard]] mem::HostMemory& memory() { return *memory_; }
  [[nodiscard]] net::Ipv4Addr fpga_ip() const {
    return NetDeviceLogic::kFpgaIp;
  }
  [[nodiscard]] const TestbedOptions& options() const { return options_; }
  /// Block-device accessors — valid only when options.attach_blk.
  [[nodiscard]] bool blk_attached() const { return blk_device_ != nullptr; }
  [[nodiscard]] BlkDeviceLogic& blk_logic() { return *blk_logic_; }
  [[nodiscard]] VirtioDeviceFunction& blk_device() { return *blk_device_; }
  [[nodiscard]] hostos::VirtioBlkDriver& blk_driver() { return blk_driver_; }
  /// Nullptr unless options.fault enabled at least one class.
  [[nodiscard]] fault::FaultPlane* fault_plane() { return fault_plane_.get(); }

  /// One measured UDP echo round trip (the paper's VirtIO test step).
  struct RoundTrip {
    sim::Duration total{};         ///< app-level clock_gettime interval
    sim::Duration hardware{};      ///< FPGA counters: notify -> irq_sent
    sim::Duration response_gen{};  ///< user-logic processing (deducted)
    bool ok = false;               ///< echo arrived and payload matched
  };
  RoundTrip udp_round_trip(ConstByteSpan payload);

  /// A fresh HostThread modelling another application/kernel context on
  /// the same host (shared cost model, noise and RNG stream), starting
  /// at the main thread's current simulated time. The multi-flow load
  /// generator gives each concurrent flow its own.
  [[nodiscard]] std::unique_ptr<hostos::HostThread> spawn_thread();

  /// Park the testbed for a crash-consistent snapshot: flush coalesced
  /// TX kicks (the only time-deferred net state) and drain
  /// any in-flight blk requests. Everything else (unharvested used
  /// entries, queued MSI deliveries) serializes as-is.
  void quiesce();

  /// Serialize/restore every layer's dynamic state except host memory
  /// pages, which the snapshot container carries in its own section. The
  /// restore target must be constructed from identical TestbedOptions
  /// (the deterministic bring-up yields identical DMA addresses);
  /// a restore then overwrites all dynamic state without touching
  /// memory.
  void transfer(migrate::StateIo& io);

 private:
  TestbedOptions options_;
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  std::unique_ptr<mem::HostMemory> memory_;
  std::unique_ptr<pcie::RootComplex> rc_;
  std::unique_ptr<NetDeviceLogic> net_logic_;
  std::unique_ptr<VirtioDeviceFunction> device_;
  hostos::InterruptController irq_;
  std::vector<pcie::EnumeratedDevice> enumerated_;
  sim::Xoshiro256 rng_;
  sim::Xoshiro256 mem_rng_;
  sim::NoiseModel noise_;
  std::unique_ptr<hostos::HostThread> thread_;
  hostos::VirtioNetDriver driver_;
  std::unique_ptr<hostos::KernelNetstack> stack_;
  std::unique_ptr<hostos::UdpSocket> socket_;
  std::unique_ptr<BlkDeviceLogic> blk_logic_;
  std::unique_ptr<VirtioDeviceFunction> blk_device_;
  hostos::VirtioBlkDriver blk_driver_;
};

class XdmaTestbed {
 public:
  explicit XdmaTestbed(TestbedOptions options = {});

  [[nodiscard]] hostos::HostThread& thread() { return *thread_; }
  [[nodiscard]] mem::HostMemory& memory() { return *memory_; }
  [[nodiscard]] xdma::XdmaIpFunction& device() { return *device_; }
  [[nodiscard]] xdma::XdmaHostDriver& driver() { return driver_; }
  [[nodiscard]] hostos::XdmaDeviceFile& h2c_file() { return *h2c_file_; }
  [[nodiscard]] hostos::XdmaDeviceFile& c2h_file() { return *c2h_file_; }
  [[nodiscard]] hostos::InterruptController& irq() { return irq_; }
  [[nodiscard]] pcie::RootComplex& root_complex() { return *rc_; }
  [[nodiscard]] const TestbedOptions& options() const { return options_; }
  /// Nullptr unless options.fault enabled at least one class.
  [[nodiscard]] fault::FaultPlane* fault_plane() { return fault_plane_.get(); }

  /// One measured back-to-back write()/read() round trip (§IV-C: the
  /// favourable setup without a device-side C2H interrupt trigger).
  struct RoundTrip {
    sim::Duration total{};
    sim::Duration hardware{};  ///< engine counters, H2C + C2H intervals
    bool ok = false;           ///< data loop-back verified
  };
  RoundTrip write_read_round_trip(u64 bytes);

  /// The "real use case" variant §IV-C describes but the example design
  /// lacks: user logic raises an interrupt when data is ready for C2H,
  /// and the application sits in poll() waiting for it before issuing
  /// read(). Adds a third interrupt + wake-up to the round trip —
  /// the cost the paper notes its favourable setup discounts.
  RoundTrip write_read_round_trip_user_irq(u64 bytes);

 private:
  RoundTrip run_round_trip(u64 bytes, bool user_irq);

  TestbedOptions options_;
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  std::unique_ptr<mem::HostMemory> memory_;
  std::unique_ptr<pcie::RootComplex> rc_;
  std::unique_ptr<xdma::XdmaIpFunction> device_;
  hostos::InterruptController irq_;
  std::vector<pcie::EnumeratedDevice> enumerated_;
  sim::Xoshiro256 rng_;
  sim::Xoshiro256 mem_rng_;
  sim::NoiseModel noise_;
  std::unique_ptr<hostos::HostThread> thread_;
  xdma::XdmaHostDriver driver_;
  std::unique_ptr<hostos::XdmaDeviceFile> h2c_file_;
  std::unique_ptr<hostos::XdmaDeviceFile> c2h_file_;
  Bytes pattern_;
  Bytes readback_;
};

/// Bytes a UDP payload of size `udp_payload` occupies on the PCIe link
/// in the VirtIO design: virtio_net_hdr + Ethernet/IP/UDP framing (with
/// Ethernet minimum-size padding). The XDMA test moves this many raw
/// bytes so both tests put the same load on the link (§IV-B).
[[nodiscard]] u64 virtio_wire_bytes(u64 udp_payload);

}  // namespace vfpga::core
