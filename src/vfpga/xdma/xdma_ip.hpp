// The XDMA example-design endpoint.
//
// Models the FPGA design the paper uses to test the vendor driver
// (§III-B.2): the stock XDMA IP with "a BRAM connected directly to an
// AXI memory-mapped interface of the PCIe IP" and no user logic. BAR0
// exposes the DMA register space (plus the MSI-X table at 0x8000, as
// PG195 places it when MSI-X is enabled). The host can only reach the
// BRAM through DMA transfers, exactly as in the example design.
#pragma once

#include <memory>
#include <optional>

#include "vfpga/pcie/capabilities.hpp"
#include "vfpga/pcie/function.hpp"
#include "vfpga/pcie/msix.hpp"
#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/xdma/engine.hpp"

namespace vfpga::xdma {

inline constexpr u16 kXilinxVendorId = 0x10ee;
/// Device ID the example design enumerates with (Gen2 design default).
inline constexpr u16 kXdmaExampleDeviceId = 0x7024;

inline constexpr BarOffset kMsixTableOffset = 0x8000;
inline constexpr BarOffset kMsixPbaOffset = 0x9000;
inline constexpr u32 kMsixVectors = 2;  ///< vector 0: H2C0, vector 1: C2H0
inline constexpr u32 kH2cVector = 0;
inline constexpr u32 kC2hVector = 1;

class XdmaIpFunction : public pcie::Function {
 public:
  /// `bram_bytes`: size of the BRAM behind the AXI-MM port. The paper
  /// sizes/widths it to match the VirtIO design's memory.
  explicit XdmaIpFunction(u64 bram_bytes);
  ~XdmaIpFunction() override;

  /// Create DMA channels and MSI-X plumbing; call after attaching to the
  /// root complex (the DMA port needs the attachment).
  void connect(pcie::RootComplex& rc);

  [[nodiscard]] DmaChannel& h2c() { return *h2c_; }
  [[nodiscard]] DmaChannel& c2h() { return *c2h_; }

  /// Install a fault plane on both DMA channels (engine-halt injection).
  /// Call after connect(); nullptr = no fault hooks.
  void set_fault_plane(fault::FaultPlane* plane) {
    h2c_->set_fault_plane(plane);
    c2h_->set_fault_plane(plane);
  }
  [[nodiscard]] mem::Bram& bram() { return bram_; }
  [[nodiscard]] fpga::PerfCounterBank& counters() { return counters_; }
  [[nodiscard]] pcie::MsixTable& msix() { return *msix_; }

  // ---- pcie::Function ---------------------------------------------------------
  u64 bar_read(u32 bar, BarOffset offset, u32 size, sim::SimTime at) override;
  void bar_write(u32 bar, BarOffset offset, u64 value, u32 size,
                 sim::SimTime at) override;

 private:
  [[nodiscard]] DmaChannel* channel_for(BarOffset offset, BarOffset base);
  u64 register_read(BarOffset offset, sim::SimTime at);
  void register_write(BarOffset offset, u32 value, sim::SimTime at);

  mem::Bram bram_;
  fpga::PerfCounterBank counters_;
  std::optional<pcie::DmaPort> port_;
  std::unique_ptr<DmaChannel> h2c_;
  std::unique_ptr<DmaChannel> c2h_;
  std::unique_ptr<pcie::MsixTable> msix_;
};

}  // namespace vfpga::xdma
