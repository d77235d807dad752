#include "vfpga/mem/host_memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "vfpga/common/contract.hpp"

namespace vfpga::mem {
namespace {

// A single shared page of zeroes backs reads from never-written memory.
const std::array<u8, HostMemory::kPageSize> kZeroPage{};

}  // namespace

HostMemory::HostMemory(HostAddr alloc_base)
    : alloc_base_(alloc_base), bump_(alloc_base) {
  VFPGA_EXPECTS(alloc_base % kPageSize == 0);
}

const u8* HostMemory::page_for_read(u64 page_index) const {
  if (last_page_ != nullptr && page_index == last_index_) {
    return last_page_;
  }
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    return kZeroPage.data();
  }
  last_index_ = page_index;
  last_page_ = it->second.get();
  return last_page_;
}

u8* HostMemory::page_for_write(u64 page_index) {
  if (last_page_ != nullptr && page_index == last_index_) {
    return last_page_;
  }
  auto& page = pages_[page_index];
  if (!page) {
    // Allocated without value-initialisation: the memset is the one
    // zeroing a new page gets.
    page = std::make_unique_for_overwrite<u8[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
  }
  last_index_ = page_index;
  last_page_ = page.get();
  return last_page_;
}

void HostMemory::read(HostAddr addr, ByteSpan out) const {
  u64 remaining = out.size();
  u64 cursor = addr;
  u8* dst = out.data();
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - offset);
    std::memcpy(dst, page_for_read(page_index) + offset, chunk);
    dst += chunk;
    cursor += chunk;
    remaining -= chunk;
  }
}

void HostMemory::dma_read(HostAddr addr, ByteSpan out) const {
  read(addr, out);
  if (fault_ != nullptr && out.size() >= fault::kMinPayloadBytes &&
      fault_->should_inject(fault::FaultClass::kDmaPoison)) {
    fault_->corrupt(out);
  }
}

void HostMemory::write(HostAddr addr, ConstByteSpan data) {
  u64 remaining = data.size();
  u64 cursor = addr;
  const u8* src = data.data();
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - offset);
    std::memcpy(page_for_write(page_index) + offset, src, chunk);
    src += chunk;
    cursor += chunk;
    remaining -= chunk;
  }
}

void HostMemory::fill(HostAddr addr, u8 value, u64 length) {
  u64 remaining = length;
  u64 cursor = addr;
  while (remaining > 0) {
    const u64 page_index = cursor / kPageSize;
    const u64 offset = cursor % kPageSize;
    const u64 chunk = std::min(remaining, kPageSize - offset);
    std::memset(page_for_write(page_index) + offset, value, chunk);
    cursor += chunk;
    remaining -= chunk;
  }
}

u8 HostMemory::read_u8(HostAddr addr) const {
  return page_for_read(addr / kPageSize)[addr % kPageSize];
}

void HostMemory::write_u8(HostAddr addr, u8 v) {
  page_for_write(addr / kPageSize)[addr % kPageSize] = v;
}

void HostMemory::write_le16(HostAddr addr, u16 v) {
  std::array<u8, 2> buf{};
  store_le16(buf, 0, v);
  write(addr, buf);
}

void HostMemory::write_le32(HostAddr addr, u32 v) {
  std::array<u8, 4> buf{};
  store_le32(buf, 0, v);
  write(addr, buf);
}

void HostMemory::write_le64(HostAddr addr, u64 v) {
  std::array<u8, 8> buf{};
  store_le64(buf, 0, v);
  write(addr, buf);
}

Bytes HostMemory::read_bytes(HostAddr addr, u64 length) const {
  Bytes out(length);
  read(addr, out);
  return out;
}

std::optional<RegionView> HostMemory::view(HostAddr base, u64 length) {
  if (length == 0 || base > ~u64{0} - (length - 1)) {
    return std::nullopt;
  }
  RegionView view{base, length};
  const u64 last = (base + length - 1) / kPageSize;
  for (u64 index = base / kPageSize; index <= last; ++index) {
    const auto it = pages_.find(index);
    if (it == pages_.end()) {
      return std::nullopt;
    }
    view.pages_.push_back(it->second.get());
  }
  return view;
}

std::vector<u64> HostMemory::resident_page_indices() const {
  std::vector<u64> out;
  out.reserve(pages_.size());
  for (const auto& [index, page] : pages_) {
    out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HostMemory::read_page(u64 page_index, ByteSpan out) const {
  VFPGA_EXPECTS(out.size() == kPageSize);
  std::memcpy(out.data(), page_for_read(page_index), kPageSize);
}

void HostMemory::write_page(u64 page_index, ConstByteSpan data) {
  VFPGA_EXPECTS(data.size() == kPageSize);
  std::memcpy(page_for_write(page_index), data.data(), kPageSize);
}

HostAddr HostMemory::allocate(u64 length, u64 alignment) {
  VFPGA_EXPECTS(length > 0);
  VFPGA_EXPECTS(alignment > 0 && (alignment & (alignment - 1)) == 0);
  const HostAddr aligned = (bump_ + alignment - 1) & ~(alignment - 1);
  bump_ = aligned + length;
  return aligned;
}

}  // namespace vfpga::mem
