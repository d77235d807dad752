// FPGA block RAM model.
//
// Both test designs in the paper back the DMA engine with on-fabric BRAM
// (the XDMA example design wires a BRAM straight to the AXI-MM port; the
// VirtIO design stages frames in BRAM). The model is a fixed-size,
// bounds-checked byte array addressed in the FPGA's AXI space, with a
// data-bus width used by the timing model to charge cycles per beat.
#pragma once

#include "vfpga/common/types.hpp"

namespace vfpga::mem {

class Bram {
 public:
  /// `size_bytes` must be a multiple of `width_bytes` (the AXI data width;
  /// 8 bytes = 64-bit bus on the Artix-7 Gen2 x2 XDMA configuration).
  Bram(u64 size_bytes, u32 width_bytes = 8);

  [[nodiscard]] u64 size() const { return storage_.size(); }
  [[nodiscard]] u32 width_bytes() const { return width_bytes_; }

  void read(FpgaAddr addr, ByteSpan out) const;
  void write(FpgaAddr addr, ConstByteSpan data);

  /// Beats (bus cycles) to stream `bytes` through the BRAM port.
  [[nodiscard]] u64 beats_for(u64 bytes) const {
    return (bytes + width_bytes_ - 1) / width_bytes_;
  }

 private:
  Bytes storage_;
  u32 width_bytes_;
};

}  // namespace vfpga::mem
