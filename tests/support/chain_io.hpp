// Payload movement over a fetched chain, for ring-level tests.
//
// The controller moves payloads through its DMA engine; ring tests that
// drive a queue engine directly stand in for it with these two loops
// over the engine's bus-master port.
#pragma once

#include <algorithm>
#include <span>

#include "vfpga/pcie/root_complex.hpp"
#include "vfpga/virtio/ids.hpp"
#include "vfpga/virtio/ring_layout.hpp"

namespace vfpga::testing_support {

/// DMA the device-readable buffers of `chain` out of host memory,
/// appending to `out`. Returns the completion time.
inline sim::SimTime gather(const pcie::DmaPort& port,
                           std::span<const virtio::Descriptor> chain,
                           Bytes& out, sim::SimTime start) {
  sim::SimTime t = start;
  for (const virtio::Descriptor& d : chain) {
    if ((d.flags & virtio::descflags::kWrite) != 0) {
      continue;
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + d.len);
    t = port.read(t, d.addr, ByteSpan{out}.subspan(old_size));
  }
  return t;
}

/// Posted writes of `data` into the device-writable buffers of `chain`,
/// in order. Returns the bytes written and
/// the time the engine is free.
struct Scattered {
  u32 written = 0;
  sim::SimTime issuer_free{};
};
inline Scattered scatter(const pcie::DmaPort& port,
                         std::span<const virtio::Descriptor> chain,
                         ConstByteSpan data, sim::SimTime start) {
  Scattered out{0, start};
  for (const virtio::Descriptor& d : chain) {
    if ((d.flags & virtio::descflags::kWrite) == 0 ||
        out.written >= data.size()) {
      continue;
    }
    const std::size_t chunk =
        std::min<std::size_t>(d.len, data.size() - out.written);
    out.issuer_free =
        port.write(out.issuer_free, d.addr, data.subspan(out.written, chunk))
            .issuer_free;
    out.written += static_cast<u32>(chunk);
  }
  return out;
}

}  // namespace vfpga::testing_support
