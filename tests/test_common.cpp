// Unit tests: endian accessors, narrowing, logging plumbing.
#include <gtest/gtest.h>

#include "vfpga/common/endian.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/common/types.hpp"

namespace vfpga {
namespace {

TEST(Endian, Le16RoundTrip) {
  std::array<u8, 4> buf{};
  store_le16(buf, 1, 0xbeef);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xbe);
  EXPECT_EQ(load_le16(buf, 1), 0xbeef);
}

TEST(Endian, Le32RoundTrip) {
  std::array<u8, 8> buf{};
  store_le32(buf, 2, 0xdeadbeef);
  EXPECT_EQ(buf[2], 0xef);
  EXPECT_EQ(buf[5], 0xde);
  EXPECT_EQ(load_le32(buf, 2), 0xdeadbeefu);
}

TEST(Endian, Le64RoundTrip) {
  std::array<u8, 8> buf{};
  store_le64(buf, 0, 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0xef);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(load_le64(buf, 0), 0x0123456789abcdefull);
}

TEST(Endian, Be16NetworkOrder) {
  std::array<u8, 2> buf{};
  store_be16(buf, 0, 0x0800);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[1], 0x00);
  EXPECT_EQ(load_be16(buf, 0), 0x0800);
}

TEST(Endian, Be32NetworkOrder) {
  std::array<u8, 4> buf{};
  store_be32(buf, 0, 0xc0a80001);  // 192.168.0.1
  EXPECT_EQ(buf[0], 0xc0);
  EXPECT_EQ(buf[3], 0x01);
  EXPECT_EQ(load_be32(buf, 0), 0xc0a80001u);
}

TEST(Endian, LeAndBeDisagreeOnMultiByte) {
  std::array<u8, 4> buf{};
  store_le32(buf, 0, 0x11223344);
  EXPECT_EQ(load_be32(buf, 0), 0x44332211u);
}

// Property sweep: every 16-bit value survives both byte orders.
class EndianProperty : public ::testing::TestWithParam<u32> {};

TEST_P(EndianProperty, AllPatternsRoundTrip) {
  const u32 seed = GetParam();
  std::array<u8, 8> buf{};
  for (u32 i = 0; i < 1000; ++i) {
    const u64 v = (static_cast<u64>(seed) * 0x9e3779b9u + i) *
                  0xbf58476d1ce4e5b9ull;
    store_le64(buf, 0, v);
    EXPECT_EQ(load_le64(buf, 0), v);
    store_le16(buf, 0, static_cast<u16>(v));
    EXPECT_EQ(load_le16(buf, 0), static_cast<u16>(v));
    store_be16(buf, 0, static_cast<u16>(v));
    EXPECT_EQ(load_be16(buf, 0), static_cast<u16>(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndianProperty,
                         ::testing::Values(1u, 7u, 13u, 127u));

TEST(Log, WarnWritesOneTaggedLineToStderr) {
  ::testing::internal::CaptureStderr();
  VFPGA_WARN("virtio-ctl", "queue size out of range: ignored");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[WARN ] virtio-ctl: queue size out of range: ignored\n");
}

}  // namespace
}  // namespace vfpga
