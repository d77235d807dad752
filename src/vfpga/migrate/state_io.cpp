#include "vfpga/migrate/state_io.hpp"

#include <algorithm>
#include <array>

namespace vfpga::migrate {
namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

u32 crc32(ConstByteSpan data, u32 seed) {
  static const std::array<u32, 256> table = make_crc_table();
  u32 c = seed ^ 0xFFFFFFFFu;
  for (u8 byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void StateWriter::begin_section(u32 id) {
  put_u32(id);
  open_.push_back(buf_.size());
  put_u64(0);  // length placeholder, patched by end_section()
}

void StateWriter::end_section() {
  const std::size_t at = open_.back();
  open_.pop_back();
  const u64 len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] = static_cast<u8>(len >> (8 * i));
  }
}

bool StateReader::take(std::size_t n) {
  if (failed_ || n > limit() - pos_) {
    failed_ = true;
    return false;
  }
  return true;
}

u64 StateReader::get_le(std::size_t n) {
  if (!take(n)) {
    return 0;
  }
  u64 v = 0;
  for (std::size_t i = n; i-- > 0;) {
    v = v << 8 | data_[pos_ + i];
  }
  pos_ += n;
  return v;
}

void StateReader::get_bytes(ByteSpan out) {
  if (!take(out.size())) {
    std::fill(out.begin(), out.end(), u8{0});
    return;
  }
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

Bytes StateReader::get_blob() {
  const u64 len = get_u64();
  if (!take(len)) {
    return {};
  }
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

bool StateReader::enter_section(u32 expected_id) {
  const u32 id = get_u32();
  const u64 len = get_u64();
  if (failed_ || id != expected_id || len > limit() - pos_) {
    failed_ = true;
    return false;
  }
  bounds_.push_back(pos_ + len);
  return true;
}

void StateReader::exit_section() {
  if (bounds_.empty()) {
    failed_ = true;
    return;
  }
  // Skip whatever the section's writer put after the fields we read —
  // that is how a newer minor revision stays readable.
  pos_ = bounds_.back();
  bounds_.pop_back();
}

}  // namespace vfpga::migrate
