// Simulated host physical memory.
//
// This is the memory the device DMAs into and the drivers place their
// descriptor rings, virtqueues, and packet buffers in. It is sparse
// (4 KiB pages allocated on first touch) so a realistic 64-bit physical
// address map costs only what is used. All multi-byte accesses go through
// the explicit little-endian accessors; nothing in the library ever
// reinterpret_casts into this memory.
//
// A bump allocator hands out DMA-able regions the way a kernel's
// dma_alloc_coherent would — alignment-respecting, never freeing (the
// experiments tear the whole address space down at once).
//
// Page lookups go through a one-entry cache of the last resident page
// touched, so const reads update a mutable field. Like everything else
// in a testbed, a HostMemory has a single owner and is never accessed
// from two threads: each parallel lane builds its own testbed.
//
// A RegionView resolves a fixed range (a virtqueue's ring area) to its
// page pointers once, so the driver's per-field ring accesses skip the
// page lookup. Pages are never freed, so a view stays valid for the
// life of its HostMemory.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/types.hpp"
#include "vfpga/fault/fault_plane.hpp"

namespace vfpga::mem {

class RegionView;

class HostMemory {
 public:
  static constexpr u64 kPageSize = 4096;

  /// `alloc_base` is where the bump allocator starts handing out space;
  /// kept away from 0 so that a null/zero address is always a bug.
  explicit HostMemory(HostAddr alloc_base = 0x1'0000'0000ull);

  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  // ---- raw access (functional data path) ----------------------------------

  void read(HostAddr addr, ByteSpan out) const;
  void write(HostAddr addr, ConstByteSpan data);
  void fill(HostAddr addr, u8 value, u64 length);

  /// DMA read-completion path (device-initiated reads routed through the
  /// root complex). Identical to read() except that an installed fault
  /// plane may poison payload-sized completions.
  void dma_read(HostAddr addr, ByteSpan out) const;

  /// Install a fault plane (nullptr = no fault hooks, zero cost).
  void set_fault_plane(fault::FaultPlane* plane) { fault_ = plane; }

  [[nodiscard]] u8 read_u8(HostAddr addr) const;
  void write_u8(HostAddr addr, u8 v);
  void write_le16(HostAddr addr, u16 v);
  void write_le32(HostAddr addr, u32 v);
  void write_le64(HostAddr addr, u64 v);

  [[nodiscard]] Bytes read_bytes(HostAddr addr, u64 length) const;

  /// Resolve [base, base + length) to a view of its pages. nullopt when
  /// the range is empty, wraps the address space or touches a page that
  /// is not resident: resolving never allocates a page.
  [[nodiscard]] std::optional<RegionView> view(HostAddr base, u64 length);

  // ---- allocation ----------------------------------------------------------

  /// Allocate `length` bytes aligned to `alignment` (power of two).
  /// The region is zero-initialized on first touch like fresh pages.
  [[nodiscard]] HostAddr allocate(u64 length, u64 alignment = 64);

  /// Bytes currently backed by allocated pages (diagnostics).
  [[nodiscard]] u64 resident_bytes() const {
    return static_cast<u64>(pages_.size()) * kPageSize;
  }

  /// Total bytes handed out by the allocator.
  [[nodiscard]] u64 allocated_bytes() const { return bump_ - alloc_base_; }

  // ---- snapshot support ----------------------------------------------------

  /// Resident page indices, sorted ascending.
  [[nodiscard]] std::vector<u64> resident_page_indices() const;

  /// Copy-out / copy-in of one whole page by index (the snapshot image's
  /// memory section).
  void read_page(u64 page_index, ByteSpan out) const;
  void write_page(u64 page_index, ConstByteSpan data);

  /// Bump-allocator cursor, so a restored memory reproduces the exact
  /// addresses future allocate() calls would have returned on the source.
  [[nodiscard]] HostAddr allocator_cursor() const { return bump_; }
  void set_allocator_cursor(HostAddr cursor) { bump_ = cursor; }

 private:
  using Page = std::unique_ptr<u8[]>;

  [[nodiscard]] const u8* page_for_read(u64 page_index) const;
  [[nodiscard]] u8* page_for_write(u64 page_index);

  std::unordered_map<u64, Page> pages_;
  // Last resident page looked up. Never the shared zero page, so a write
  // after a zero-page read still allocates; pages are never freed, so the
  // pointer survives rehashes of pages_.
  mutable u64 last_index_ = 0;
  mutable u8* last_page_ = nullptr;
  HostAddr alloc_base_;
  HostAddr bump_;
  fault::FaultPlane* fault_ = nullptr;
};

/// A fixed range of host memory resolved to page pointers once. Offsets
/// are relative to base(); the typed accessors take naturally aligned
/// offsets (base() + offset a multiple of the width), so an access never
/// straddles a page. Built by HostMemory::view(); valid while that
/// HostMemory lives. A
/// default-constructed view is empty and fails every access.
class RegionView {
 public:
  RegionView() = default;

  [[nodiscard]] HostAddr base() const { return base_; }
  [[nodiscard]] u64 size() const { return size_; }

  [[nodiscard]] u16 read_le16(u64 offset) const {
    return load_le16(ConstByteSpan{at(offset, 2), 2});
  }
  [[nodiscard]] u32 read_le32(u64 offset) const {
    return load_le32(ConstByteSpan{at(offset, 4), 4});
  }
  [[nodiscard]] u64 read_le64(u64 offset) const {
    return load_le64(ConstByteSpan{at(offset, 8), 8});
  }
  void write_le16(u64 offset, u16 v) {
    store_le16(ByteSpan{at(offset, 2), 2}, 0, v);
  }
  void write_le32(u64 offset, u32 v) {
    store_le32(ByteSpan{at(offset, 4), 4}, 0, v);
  }
  void write_le64(u64 offset, u64 v) {
    store_le64(ByteSpan{at(offset, 8), 8}, 0, v);
  }

 private:
  friend class HostMemory;
  RegionView(HostAddr base, u64 size) : base_(base), size_(size) {}

  [[nodiscard]] u8* at(u64 offset, u64 width) const {
    const u64 pos = base_ % HostMemory::kPageSize + offset;
    VFPGA_EXPECTS(offset < size_ && width <= size_ - offset &&
                  pos % width == 0);
    return pages_[pos / HostMemory::kPageSize] + pos % HostMemory::kPageSize;
  }
  HostAddr base_ = 0;
  u64 size_ = 0;
  std::vector<u8*> pages_;  ///< one per page the range spans, in order
};

}  // namespace vfpga::mem
