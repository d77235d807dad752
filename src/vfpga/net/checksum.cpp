#include "vfpga/net/checksum.hpp"

#include <bit>
#include <cstring>

namespace vfpga::net {
namespace {

/// Eight bytes loaded in host order, as the sum of their 32-bit halves.
u64 sum_halves(const u8* p) {
  u64 w = 0;
  std::memcpy(&w, p, sizeof w);
  return (w & 0xffffffffu) + (w >> 32);
}

}  // namespace

void ChecksumAccumulator::add(ConstByteSpan data) {
  std::size_t i = 0;
  if (odd_ && !data.empty()) {
    // Complete the dangling high byte with this span's first byte.
    sum_ += data[0];
    odd_ = false;
    i = 1;
  }
  // Eight bytes per step in host byte order, as two 32-bit halves so the
  // 64-bit sums cannot overflow below 16 GiB; two independent sums keep
  // consecutive steps from waiting on each other. 2^16 = 1 mod 0xffff,
  // so the folded result is the ones'-complement sum of the host-order
  // 16-bit words; RFC 1071 section 2(B): on a little-endian host that is
  // the byte swap of the network-order sum, with zero only for all-zero
  // data, so adding the swapped value leaves fold() exactly as a
  // byte-pair loop would.
  const u8* p = data.data();
  const std::size_t n = data.size();
  u64 lanes[2] = {0, 0};
  for (; i + 16 <= n; i += 16) {
    lanes[0] += sum_halves(p + i);
    lanes[1] += sum_halves(p + i + 8);
  }
  u64 partial = lanes[0] + lanes[1];
  if (i + 8 <= n) {
    partial += sum_halves(p + i);
    i += 8;
  }
  if (i < n) {
    // Zero padding: a trailing odd byte is the high byte of its word,
    // exactly the half-word the next add() completes.
    u8 tail[8] = {};
    std::memcpy(tail, p + i, n - i);
    partial += sum_halves(tail);
    odd_ = ((n - i) & 1) != 0;
  }
  while (partial >> 16) {
    partial = (partial & 0xffff) + (partial >> 16);
  }
  if constexpr (std::endian::native == std::endian::little) {
    partial = ((partial & 0xff) << 8) | (partial >> 8);
  }
  sum_ += partial;
}

void ChecksumAccumulator::add_u16(u16 value) {
  // Only valid on even byte boundaries; the library always builds
  // pseudo-headers field-by-field so this holds by construction.
  sum_ += value;
}

void ChecksumAccumulator::add_u32(u32 value) {
  add_u16(static_cast<u16>(value >> 16));
  add_u16(static_cast<u16>(value & 0xffff));
}

u16 ChecksumAccumulator::fold() const {
  u64 s = sum_;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<u16>(~s & 0xffff);
}

u16 internet_checksum(ConstByteSpan data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.fold();
}

bool checksum_valid(ConstByteSpan data) {
  // Summing a block that embeds a correct checksum yields 0 after
  // complementing.
  return internet_checksum(data) == 0;
}

}  // namespace vfpga::net
