// Self-test of the benchmark's op loops and tracer.
//
// The benchmark splits each echo into separate sendto/recvfrom (or
// write/read) calls so spans fit between them. These tests pin that the
// split loops simulate exactly what the testbeds' own round-trip
// methods do, that tracing never changes a simulated result, and that
// the workloads repeat exactly per seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = vfpga::core;

constexpr u64 kOps = 400;

class SeededTest : public ::testing::TestWithParam<u64> {};

TEST_P(SeededTest, VirtioEchoMatchesUdpRoundTrip) {
  core::TestbedOptions options;
  options.seed = GetParam();
  core::VirtioNetTestbed split(options);
  core::VirtioNetTestbed reference(options);
  PayloadDraw split_draw(GetParam());
  PayloadDraw reference_draw(GetParam());
  Tracer tracer(16);
  for (u64 i = 0; i < kOps; ++i) {
    const EchoResult a = virtio_echo(split, split_draw.next(), tracer);
    const auto b = reference.udp_round_trip(reference_draw.next());
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_EQ(a.total.picos(), b.total.picos()) << "op " << i;
    ASSERT_EQ(a.hardware.picos(), b.hardware.picos()) << "op " << i;
    ASSERT_EQ(a.user_logic.picos(), b.response_gen.picos()) << "op " << i;
  }
  EXPECT_EQ(split.thread().now(), reference.thread().now());
  EXPECT_EQ(tracer.aggregate(SpanId::kSendto).calls, kOps);
  EXPECT_EQ(tracer.aggregate(SpanId::kRecvfrom).calls, kOps);
}

TEST_P(SeededTest, XdmaEchoMatchesWriteReadRoundTrip) {
  core::TestbedOptions options;
  options.seed = GetParam();
  core::XdmaTestbed split(options);
  core::XdmaTestbed reference(options);
  PayloadDraw draw(GetParam());
  Tracer tracer(16);
  vfpga::Bytes readback;
  for (u64 i = 0; i < kOps; ++i) {
    const vfpga::ConstByteSpan payload = draw.next();
    const u64 bytes = core::virtio_wire_bytes(payload.size());
    vfpga::Bytes pattern(bytes, static_cast<u8>(i));
    readback.resize(bytes);
    const EchoResult a = xdma_echo(split, pattern, readback, tracer);
    const auto b = reference.write_read_round_trip(bytes);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_EQ(a.total.picos(), b.total.picos()) << "op " << i;
    ASSERT_EQ(a.hardware.picos(), b.hardware.picos()) << "op " << i;
  }
  EXPECT_EQ(split.thread().now(), reference.thread().now());
  EXPECT_EQ(tracer.aggregate(SpanId::kXdmaWrite).calls, kOps);
}

TEST_P(SeededTest, TracingLeavesEchoSegmentsUnchanged) {
  Tracer off;
  Tracer on(1024);
  const Segment a = run_virtio_echo(GetParam(), kOps, off);
  const Segment b = run_virtio_echo(GetParam(), kOps, on);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest.failed, 0u);
  const Segment c = run_xdma_echo(GetParam(), kOps, off);
  const Segment d = run_xdma_echo(GetParam(), kOps, on);
  EXPECT_EQ(c.digest, d.digest);
  EXPECT_EQ(c.digest.failed, 0u);
}

TEST_P(SeededTest, BlkPolledRepeatsWithoutInterrupts) {
  Tracer off;
  Tracer on(1024);
  const Segment a = run_blk_polled(GetParam(), kOps, off);
  const Segment b = run_blk_polled(GetParam(), kOps, on);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest.failed, 0u);
  for (const auto& [name, value] : a.digest.counts) {
    if (name == "hostos.irqs_per_op") {
      EXPECT_EQ(value, 0.0);
    }
  }
  EXPECT_GT(on.aggregate(SpanId::kBlkSubmit).calls, 0u);
  EXPECT_GT(on.aggregate(SpanId::kBlkPop).calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest, ::testing::Values(1u, 0x5eed0007u));

TEST(LaneFleet, WorkerCountIsPinnedAndDoesNotChangeResults) {
  // An inherited VFPGA_THREADS must not override the requested count.
  setenv("VFPGA_THREADS", "1", 1);
  Tracer off;
  const Segment two = run_lane_fleet(3, 50, 2, off);
  const Segment one = run_lane_fleet(3, 50, 1, off);
  EXPECT_EQ(two.threads_used, 2u);
  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(two.digest, one.digest);
  EXPECT_EQ(two.digest.ops, u64{kFleetLanes} * 50);
  EXPECT_EQ(two.digest.failed, 0u);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(8);
  {
    Span outer(tracer, SpanId::kOp);
    Span inner(tracer, SpanId::kSendto);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Tracer::Aggregate& op = tracer.aggregate(SpanId::kOp);
  const Tracer::Aggregate& send = tracer.aggregate(SpanId::kSendto);
  EXPECT_EQ(op.calls, 1u);
  EXPECT_GE(send.self_ns, 2'000'000);
  EXPECT_EQ(op.total_ns - op.self_ns, send.total_ns);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer off;
  { Span span(off, SpanId::kOp); }
  EXPECT_EQ(off.aggregate(SpanId::kOp).calls, 0u);
}

}  // namespace
}  // namespace perfbench
