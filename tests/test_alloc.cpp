// Allocation caps on the steady-state round trips. This binary replaces
// the global allocation functions with counting ones, so a test can
// count the heap allocations of one VirtIO UDP echo (split and packed
// rings, checksum offload on and off), one XDMA loop-back or one polled
// virtio-blk request. The caps are the counts today's datapath reaches;
// lowering them towards zero is the way forward, raising one is a
// regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <string>

#include "vfpga/core/testbed.hpp"
#include "vfpga/virtio/blk_defs.hpp"

namespace {

thread_local vfpga::u64 g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace vfpga {
namespace {

// Payload sizes cycled through warm-up and measurement, so buffers that
// grow to the largest size are grown before counting starts.
constexpr std::array<u64, 3> kSizes = {64, 1024, 256};
// Enough warm-up for every ring slot and buffer page to have been
// touched at the largest size.
constexpr int kWarmup = 1024;
constexpr int kMeasured = 64;

// Worst single op over kMeasured. A VirtIO echo makes 3 allocations:
// the user logic's response buffer, the RX frame and the socket
// datagram; the controller's chain lists, payload and DMA staging are
// reused buffers. Every 16th op adds two std::deque blocks (RX backlog
// and socket queue), every 64th one for the interrupt controller's
// queue. An XDMA loop-back makes none, except every 64th op, which adds
// a block to each of its two interrupt vectors' queues. A polled blk
// request makes one for a read (the user logic's response payload) and
// none for a write; the driver's descriptor list is a reused buffer.
// Now and then a std::deque block adds one more.
constexpr u64 kEchoCap = 6;
constexpr u64 kXdmaCap = 2;
constexpr u64 kBlkCap = 2;

/// Most allocations any one of kMeasured steady-state ops made.
template <typename Op>
u64 worst_allocations(Op&& op) {
  for (int i = 0; i < kWarmup; ++i) {
    op(kSizes[static_cast<std::size_t>(i) % kSizes.size()]);
  }
  u64 worst = 0;
  for (int i = 0; i < kMeasured; ++i) {
    const u64 before = g_allocations;
    op(kSizes[static_cast<std::size_t>(i) % kSizes.size()]);
    worst = std::max(worst, g_allocations - before);
  }
  return worst;
}

struct EchoCase {
  bool packed;
  bool offload;
  u64 cap;
};

class VirtioEchoAllocations : public ::testing::TestWithParam<EchoCase> {};

TEST_P(VirtioEchoAllocations, SteadyStateEchoStaysUnderCap) {
  core::TestbedOptions options;
  options.use_packed_rings = GetParam().packed;
  options.net.offer_csum = GetParam().offload;
  core::VirtioNetTestbed bed{options};
  const Bytes data(1024, 0x5a);
  bool ok = true;
  const u64 worst = worst_allocations([&](u64 size) {
    const auto payload = ConstByteSpan{data}.first(size);
    ok = ok && bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                   bed.options().fpga_udp_port, payload);
    const auto reply = bed.socket().recvfrom(bed.thread());
    ok = ok && reply.has_value() && reply->payload.size() == size;
  });
  EXPECT_TRUE(ok);
  EXPECT_LE(worst, GetParam().cap);
}

INSTANTIATE_TEST_SUITE_P(
    RingsAndOffload, VirtioEchoAllocations,
    ::testing::Values(EchoCase{false, true, kEchoCap},
                      EchoCase{false, false, kEchoCap},
                      EchoCase{true, true, kEchoCap},
                      EchoCase{true, false, kEchoCap}),
    [](const ::testing::TestParamInfo<EchoCase>& param_info) {
      return std::string(param_info.param.packed ? "packed" : "split") +
             (param_info.param.offload ? "_offload" : "_full_csum");
    });

TEST(XdmaAllocations, SteadyStateLoopBackStaysUnderCap) {
  core::XdmaTestbed bed{core::TestbedOptions{}};
  const Bytes pattern(1024, 0xa5);
  Bytes readback(1024);
  bool ok = true;
  const u64 worst = worst_allocations([&](u64 size) {
    ok = ok && bed.h2c_file().write(bed.thread(),
                                    ConstByteSpan{pattern}.first(size)) ==
                   static_cast<i64>(size);
    ok = ok && bed.c2h_file().read(bed.thread(),
                                   ByteSpan{readback}.first(size)) ==
                   static_cast<i64>(size);
  });
  EXPECT_TRUE(ok);
  EXPECT_LE(worst, kXdmaCap);
}

TEST(BlkAllocations, PolledRequestStaysUnderCap) {
  core::TestbedOptions options;
  options.attach_blk = true;
  options.blk.capacity_sectors = 256;
  options.blk_driver.max_io_bytes = 1024;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();
  drv.set_polled(0, true);
  const Bytes pattern(1024, 0x3c);
  u64 op = 0;
  bool ok = true;
  const u64 worst = worst_allocations([&](u64 size) {
    // Alternate writes and reads; sizes are whole sectors.
    const u64 bytes = (size + 511) / 512 * 512;
    const u64 sector = (op * 7) % 128;
    const auto slot =
        op++ % 2 == 0
            ? drv.submit_write(t, 0, sector, ConstByteSpan{pattern}.first(bytes))
            : drv.submit_read(t, 0, sector, static_cast<u32>(bytes));
    ok = ok && slot.has_value() && drv.wait_polled(t, 0);
    const auto c = drv.pop_completion(0);
    ok = ok && c.has_value() && c->status == virtio::blk::kStatusOk;
  });
  EXPECT_TRUE(ok);
  EXPECT_LE(worst, kBlkCap);
}

}  // namespace
}  // namespace vfpga
