// Unit tests: simulated host memory and BRAM.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "support/mem_read.hpp"
#include "vfpga/mem/bram.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::mem {
namespace {

using testing_support::read_le16;
using testing_support::read_le32;
using testing_support::read_le64;

TEST(HostMemory, ReadsZeroBeforeWrite) {
  HostMemory memory;
  EXPECT_EQ(memory.read_u8(0x1234), 0);
  EXPECT_EQ(read_le64(memory, 0xdead0000), 0u);
  EXPECT_EQ(memory.resident_bytes(), 0u);  // reads never allocate
}

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory memory;
  const Bytes data{1, 2, 3, 4, 5};
  memory.write(0x5000, data);
  EXPECT_EQ(memory.read_bytes(0x5000, 5), data);
  EXPECT_EQ(memory.read_u8(0x5002), 3);
}

TEST(HostMemory, CrossPageAccess) {
  HostMemory memory;
  Bytes data(HostMemory::kPageSize, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  // Straddle two page boundaries.
  const HostAddr addr = 3 * HostMemory::kPageSize - 100;
  memory.write(addr, data);
  EXPECT_EQ(memory.read_bytes(addr, data.size()), data);
  EXPECT_EQ(memory.resident_bytes(), 2 * HostMemory::kPageSize);
}

TEST(HostMemory, TypedAccessorsAreLittleEndian) {
  HostMemory memory;
  memory.write_le32(0x100, 0xdeadbeef);
  EXPECT_EQ(memory.read_u8(0x100), 0xef);
  EXPECT_EQ(memory.read_u8(0x103), 0xde);
  EXPECT_EQ(read_le32(memory, 0x100), 0xdeadbeefu);
  memory.write_le16(0x200, 0x1234);
  EXPECT_EQ(read_le16(memory, 0x200), 0x1234);
  memory.write_le64(0x300, 0x1122334455667788ull);
  EXPECT_EQ(read_le64(memory, 0x300), 0x1122334455667788ull);
}

TEST(HostMemory, FillWorksAcrossPages) {
  HostMemory memory;
  const HostAddr addr = HostMemory::kPageSize - 10;
  memory.fill(addr, 0xaa, 20);
  for (u64 i = 0; i < 20; ++i) {
    EXPECT_EQ(memory.read_u8(addr + i), 0xaa);
  }
  EXPECT_EQ(memory.read_u8(addr - 1), 0);
  EXPECT_EQ(memory.read_u8(addr + 20), 0);
}

// Every size class a libc memcpy/memset chooses between (tiny, vector,
// loop, page-sized and multi-page), at offsets that put the copy on and
// off alignment and across a page boundary. Guard bytes on both sides of
// the target, in memory and in the read buffer, must not move.
TEST(HostMemory, EveryLengthAndOffsetRoundTrips) {
  constexpr u64 kGuard = 16;
  const std::vector<u64> offsets{0, 1, 7, 8, 15, 4089, 4095};
  std::vector<u64> lengths{1023, 1024, 1025, 4095, 4096, 4097, 8193};
  for (u64 n = 0; n <= 256; ++n) {
    lengths.push_back(n);
  }
  HostMemory memory;
  sim::Xoshiro256 rng{0x3e3c};
  const auto random_bytes = [&rng](u64 n) {
    Bytes out(n);
    for (u8& b : out) {
      b = static_cast<u8>(rng());
    }
    return out;
  };
  for (const u64 offset : offsets) {
    const HostAddr addr = 4 * HostMemory::kPageSize + offset;
    for (const u64 length : lengths) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " length "
                                      << length);
      // Background over [addr - guard, addr + length + guard).
      Bytes expected = random_bytes(length + 2 * kGuard);
      memory.write(addr - kGuard, expected);

      const Bytes pattern = random_bytes(length);
      memory.write(addr, pattern);
      std::copy(pattern.begin(), pattern.end(),
                expected.begin() + static_cast<std::ptrdiff_t>(kGuard));
      EXPECT_EQ(memory.read_bytes(addr - kGuard, expected.size()), expected);

      // read() into the middle of a guarded buffer.
      const Bytes canary = random_bytes(length + 2 * kGuard);
      Bytes out = canary;
      memory.read(addr, ByteSpan{out}.subspan(kGuard, length));
      Bytes want = canary;
      std::copy(pattern.begin(), pattern.end(),
                want.begin() + static_cast<std::ptrdiff_t>(kGuard));
      EXPECT_EQ(out, want);

      const u8 value = static_cast<u8>(rng());
      memory.fill(addr, value, length);
      std::fill_n(expected.begin() + static_cast<std::ptrdiff_t>(kGuard),
                  length, value);
      EXPECT_EQ(memory.read_bytes(addr - kGuard, expected.size()), expected);
    }
  }
}

// ---- last-page cache ------------------------------------------------------

TEST(HostMemory, WriteAfterZeroPageReadAllocates) {
  HostMemory memory;
  EXPECT_EQ(read_le64(memory, 0x7000), 0u);
  memory.write_le64(0x7000, 0x0102030405060708ull);
  EXPECT_EQ(read_le64(memory, 0x7000), 0x0102030405060708ull);
  EXPECT_EQ(memory.resident_bytes(), HostMemory::kPageSize);
}

TEST(HostMemory, AlternatingPagesReadTheirOwnData) {
  HostMemory memory;
  const HostAddr a = 0x10000;
  const HostAddr b = 0x20000;
  for (u16 i = 0; i < 64; ++i) {
    memory.write_le16(a + 2 * i, static_cast<u16>(0xa000 + i));
    memory.write_le16(b + 2 * i, static_cast<u16>(0xb000 + i));
  }
  for (u16 i = 0; i < 64; ++i) {
    EXPECT_EQ(read_le16(memory, a + 2 * i), 0xa000 + i);
    EXPECT_EQ(read_le16(memory, b + 2 * i), 0xb000 + i);
  }
  EXPECT_EQ(memory.resident_bytes(), 2 * HostMemory::kPageSize);
}

TEST(HostMemory, WholePageCopyRoundTripsThroughTheCache) {
  HostMemory memory;
  std::array<u8, HostMemory::kPageSize> in{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<u8>(i * 13);
  }
  memory.write_page(9, in);
  std::array<u8, HostMemory::kPageSize> out{};
  memory.read_page(9, out);
  EXPECT_EQ(out, in);
  memory.write_u8(9 * HostMemory::kPageSize + 3, 0xee);
  memory.read_page(9, out);
  EXPECT_EQ(out[3], 0xee);
  EXPECT_EQ(memory.read_u8(9 * HostMemory::kPageSize + 4), in[4]);
}

TEST(HostMemory, ResidentBytesCountsEachTouchedPageOnce) {
  HostMemory memory;
  memory.write_u8(0x1000, 1);
  memory.write_u8(0x1001, 2);  // cache hit: no new page
  (void)memory.read_u8(0x3000);  // zero-page read: no new page
  memory.write_u8(0x2000, 3);
  memory.write_u8(0x1002, 4);
  EXPECT_EQ(memory.resident_bytes(), 2 * HostMemory::kPageSize);
  EXPECT_EQ(memory.resident_page_indices(), (std::vector<u64>{1, 2}));
}

TEST(HostMemory, AllocatorRespectsAlignment) {
  HostMemory memory;
  const HostAddr a = memory.allocate(100, 64);
  EXPECT_EQ(a % 64, 0u);
  const HostAddr b = memory.allocate(10, 4096);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GE(b, a + 100);
  const HostAddr c = memory.allocate(1, 16);
  EXPECT_GE(c, b + 10);
}

TEST(HostMemory, AllocationsNeverOverlap) {
  HostMemory memory;
  std::vector<std::pair<HostAddr, u64>> regions;
  u64 sizes[] = {1, 16, 64, 100, 4096, 12345};
  for (u64 size : sizes) {
    for (u64 align : {u64{1}, u64{64}, u64{4096}}) {
      regions.emplace_back(memory.allocate(size, align), size);
    }
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const bool disjoint =
          regions[i].first + regions[i].second <= regions[j].first ||
          regions[j].first + regions[j].second <= regions[i].first;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

// ---- RegionView ------------------------------------------------------------

// A 512-byte region that straddles the page 4 / page 5 boundary, with an
// 8-byte aligned base so every width's offsets can land on both pages.
constexpr HostAddr kViewBase = 5 * HostMemory::kPageSize - 200;
constexpr u64 kViewLength = 512;

TEST(RegionView, ResolvesOnlyResidentRanges) {
  HostMemory memory;
  EXPECT_FALSE(memory.view(kViewBase, kViewLength).has_value());
  memory.fill(kViewBase, 0, 200);  // the first page only
  EXPECT_FALSE(memory.view(kViewBase, kViewLength).has_value());
  EXPECT_EQ(memory.resident_bytes(), HostMemory::kPageSize);
  memory.fill(kViewBase, 0, kViewLength);
  const auto view = memory.view(kViewBase, kViewLength);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->base(), kViewBase);
  EXPECT_EQ(view->size(), kViewLength);
  EXPECT_FALSE(memory.view(kViewBase, 0).has_value());
  EXPECT_FALSE(memory.view(~u64{0} - 7, 16).has_value());  // wraps
  EXPECT_EQ(memory.resident_bytes(), 2 * HostMemory::kPageSize);
}

/// One seeded access of 2, 4 or 8 bytes at a naturally aligned offset.
struct Access {
  u64 width;
  u64 offset;
  u64 value;
};

Access next_access(sim::Xoshiro256& rng) {
  const u64 width = u64{2} << rng.uniform_below(3);
  const u64 offset = rng.uniform_below(kViewLength / width) * width;
  return {width, offset, rng() >> (64 - 8 * width)};
}

/// The view's typed accessors agree with HostMemory's at base + offset:
/// writes land the same bytes, and reads return the same values, on
/// both sides of the page boundary.
TEST(RegionView, MatchesHostMemoryTypedAccessors) {
  HostMemory through_view;
  HostMemory direct;
  through_view.fill(kViewBase, 0, kViewLength);
  direct.fill(kViewBase, 0, kViewLength);
  auto view = through_view.view(kViewBase, kViewLength);
  ASSERT_TRUE(view.has_value());
  sim::Xoshiro256 rng{0x7e61};
  for (int i = 0; i < 4000; ++i) {
    const Access a = next_access(rng);
    const HostAddr addr = kViewBase + a.offset;
    if (rng.uniform_below(2) == 0) {
      switch (a.width) {
        case 2:
          view->write_le16(a.offset, static_cast<u16>(a.value));
          direct.write_le16(addr, static_cast<u16>(a.value));
          break;
        case 4:
          view->write_le32(a.offset, static_cast<u32>(a.value));
          direct.write_le32(addr, static_cast<u32>(a.value));
          break;
        default:
          view->write_le64(a.offset, a.value);
          direct.write_le64(addr, a.value);
          break;
      }
      continue;
    }
    switch (a.width) {
      case 2:
        EXPECT_EQ(view->read_le16(a.offset), read_le16(direct, addr));
        EXPECT_EQ(view->read_le16(a.offset), read_le16(through_view, addr));
        break;
      case 4:
        EXPECT_EQ(view->read_le32(a.offset), read_le32(direct, addr));
        EXPECT_EQ(view->read_le32(a.offset), read_le32(through_view, addr));
        break;
      default:
        EXPECT_EQ(view->read_le64(a.offset), read_le64(direct, addr));
        EXPECT_EQ(view->read_le64(a.offset), read_le64(through_view, addr));
        break;
    }
  }
  EXPECT_EQ(through_view.read_bytes(kViewBase, kViewLength),
            direct.read_bytes(kViewBase, kViewLength));
}

TEST(Bram, RoundTripAndBounds) {
  Bram bram{1024, 8};
  const Bytes data{9, 8, 7, 6};
  bram.write(100, data);
  Bytes out(4);
  bram.read(100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(bram.size(), 1024u);
}

TEST(Bram, BeatsForBusWidth) {
  Bram bram{1024, 8};
  EXPECT_EQ(bram.beats_for(1), 1u);
  EXPECT_EQ(bram.beats_for(8), 1u);
  EXPECT_EQ(bram.beats_for(9), 2u);
  EXPECT_EQ(bram.beats_for(64), 8u);
  Bram wide{1024, 16};
  EXPECT_EQ(wide.beats_for(64), 4u);
}

}  // namespace
}  // namespace vfpga::mem
