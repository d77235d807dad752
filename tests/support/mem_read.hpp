// Little-endian loads from simulated host memory, for tests that read
// back ring fields and DMA results. The library reads its rings through
// mem::RegionView; these go through HostMemory::read.
#pragma once

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/mem/host_memory.hpp"

namespace vfpga::testing_support {

inline u16 read_le16(const mem::HostMemory& memory, HostAddr addr) {
  std::array<u8, 2> buf{};
  memory.read(addr, buf);
  return load_le16(buf);
}

inline u32 read_le32(const mem::HostMemory& memory, HostAddr addr) {
  std::array<u8, 4> buf{};
  memory.read(addr, buf);
  return load_le32(buf);
}

inline u64 read_le64(const mem::HostMemory& memory, HostAddr addr) {
  std::array<u8, 8> buf{};
  memory.read(addr, buf);
  return load_le64(buf);
}

}  // namespace vfpga::testing_support
