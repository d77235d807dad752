#include "vfpga/mem/bram.hpp"

#include <cstring>

#include "vfpga/common/contract.hpp"

namespace vfpga::mem {

Bram::Bram(u64 size_bytes, u32 width_bytes)
    : storage_(size_bytes, 0), width_bytes_(width_bytes) {
  VFPGA_EXPECTS(width_bytes > 0);
  VFPGA_EXPECTS(size_bytes % width_bytes == 0);
}

void Bram::read(FpgaAddr addr, ByteSpan out) const {
  VFPGA_EXPECTS(addr + out.size() <= storage_.size());
  std::memcpy(out.data(), storage_.data() + addr, out.size());
}

void Bram::write(FpgaAddr addr, ConstByteSpan data) {
  VFPGA_EXPECTS(addr + data.size() <= storage_.size());
  std::memcpy(storage_.data() + addr, data.data(), data.size());
}

}  // namespace vfpga::mem
