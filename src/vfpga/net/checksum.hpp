// The Internet checksum (RFC 1071) and its incremental form.
//
// Real checksums are computed over every simulated frame: the host
// stack writes them, the FPGA user logic verifies and regenerates them
// for echo responses (and can offload them when VIRTIO_NET_F_CSUM is
// negotiated — an ablation the examples exercise).
#pragma once

#include "vfpga/common/types.hpp"

namespace vfpga::net {

/// Running ones'-complement accumulator; fold() produces the final
/// 16-bit checksum. Usable for the pseudo-header + payload pattern of
/// UDP/TCP.
class ChecksumAccumulator {
 public:
  void add(ConstByteSpan data);
  void add_u16(u16 value);
  void add_u32(u32 value);

  /// Final folded checksum, already complemented (ready to store).
  [[nodiscard]] u16 fold() const;

 private:
  u64 sum_ = 0;
  bool odd_ = false;  ///< dangling byte from the previous add()
};

/// One-shot convenience: checksum of a single span.
[[nodiscard]] u16 internet_checksum(ConstByteSpan data);

/// Verify: data (with embedded checksum field) sums to 0xffff.
[[nodiscard]] bool checksum_valid(ConstByteSpan data);

}  // namespace vfpga::net
