// Busy-poll datapath tests: visibility-gated harvesting, TX kick
// coalescing against EVENT_IDX (split and packed rings), the adaptive
// spin-vs-sleep controller, and the hybrid interrupt fallback.
#include <gtest/gtest.h>

#include "vfpga/core/testbed.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {
namespace {

core::TestbedOptions quiet_options(u64 seed, bool packed = false) {
  core::TestbedOptions options;
  options.seed = seed;
  options.noise.enabled = false;  // deterministic timing for asserts
  options.use_packed_rings = packed;
  return options;
}

Bytes make_payload(u64 bytes, u8 tag) { return Bytes(bytes, tag); }

bool echo_once(core::VirtioNetTestbed& bed, u8 tag, bool more = false) {
  const Bytes payload = make_payload(96, tag);
  if (!bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                           bed.options().fpga_udp_port, payload, more)) {
    return false;
  }
  const auto datagram = bed.socket().recvfrom(bed.thread());
  return datagram.has_value() && datagram->payload == payload;
}

// A poll-mode harvest may not observe the used-ring write before its
// posted write has been delivered: the harvest timestamp must sit at or
// after the device-recorded visibility edge of that completion.
TEST(BusyPoll, HarvestWaitsForUsedWriteVisibility) {
  core::VirtioNetTestbed bed{quiet_options(0x9011)};
  bed.socket().set_rx_mode(RxMode::kBusyPoll);
  bed.socket().set_busy_poll_budget(sim::microseconds(200));

  for (u8 i = 0; i < 8; ++i) {
    ASSERT_TRUE(echo_once(bed, i));
    const auto visible = bed.device().completion_visible_time(
        virtio::net::kRxQueue, i);
    ASSERT_TRUE(visible.has_value()) << "completion " << int{i};
    EXPECT_GE(bed.thread().now(), *visible);
  }
  EXPECT_GT(bed.driver().busy_polls(), 0u);
  EXPECT_GT(bed.driver().busy_poll_harvested(), 0u);
}

// Coalescing N frames behind the xmit_more hint must produce exactly
// one doorbell for the batch — on both ring formats — while every
// frame still reaches the device and comes back.
TEST(BusyPoll, KickCoalescingBatchesDoorbells) {
  for (const bool packed : {false, true}) {
    core::VirtioNetTestbed bed{quiet_options(0x9012, packed)};
    bed.socket().set_rx_mode(RxMode::kBusyPoll);
    bed.driver().set_kick_coalesce(4);

    const u64 kicks_before = bed.driver().tx_kicks();
    const u64 frames_before = bed.device().frames_processed();

    const Bytes payload = make_payload(96, 0x42);
    for (u32 b = 0; b < 4; ++b) {
      ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                      bed.options().fpga_udp_port, payload,
                                      /*more_coming=*/b + 1 < 4));
    }
    // Exactly one doorbell published the whole batch; the device saw
    // every frame (echo replies are queued even before we receive).
    EXPECT_EQ(bed.driver().tx_kicks(), kicks_before + 1) << "packed="
                                                         << packed;
    EXPECT_EQ(bed.driver().tx_kicks_coalesced(), 3u);
    EXPECT_EQ(bed.device().frames_processed(), frames_before + 4);
    for (u32 b = 0; b < 4; ++b) {
      const auto datagram = bed.socket().recvfrom(bed.thread());
      ASSERT_TRUE(datagram.has_value());
      EXPECT_EQ(datagram->payload, payload);
    }
  }
}

// If the sender never clears the xmit_more hint the batch is stranded
// until the next receive call: busy_poll()'s entry flush must publish
// and kick it, so no frame is lost to the hint.
TEST(BusyPoll, StrandedBatchFlushedByNextPoll) {
  core::VirtioNetTestbed bed{quiet_options(0x9013)};
  bed.socket().set_rx_mode(RxMode::kBusyPoll);
  bed.driver().set_kick_coalesce(8);

  const Bytes payload = make_payload(96, 0x51);
  for (u32 b = 0; b < 3; ++b) {
    ASSERT_TRUE(bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                    bed.options().fpga_udp_port, payload,
                                    /*more_coming=*/true));
  }
  for (u32 b = 0; b < 3; ++b) {
    const auto datagram = bed.socket().recvfrom(bed.thread());
    ASSERT_TRUE(datagram.has_value());
    EXPECT_EQ(datagram->payload, payload);
  }
}

// The adaptive controller's decision follows the EWMA across the spin
// threshold in both directions, and an unobserved pair defaults to
// spinning (first touch must not eat an interrupt for free).
TEST(BusyPoll, AdaptiveControllerFollowsEwma) {
  core::VirtioNetTestbed bed{quiet_options(0x9014)};
  auto& driver = bed.driver();
  const sim::Duration threshold =
      VirtioNetDriver::kBusyPollPolicy.spin_threshold;

  EXPECT_LT(driver.rx_wait_ewma_us(), 0.0);  // no observation yet
  EXPECT_TRUE(driver.should_busy_poll());

  driver.note_rx_wait(sim::microseconds(8));
  EXPECT_NEAR(driver.rx_wait_ewma_us(), 8.0, 1e-9);
  EXPECT_TRUE(driver.should_busy_poll());

  // Repeated slow waits drag the EWMA above the threshold -> sleep.
  for (int i = 0; i < 32 && driver.should_busy_poll(); ++i) {
    driver.note_rx_wait(threshold * 4);
  }
  EXPECT_FALSE(driver.should_busy_poll());
  EXPECT_GT(driver.rx_wait_ewma_us(), threshold.micros());

  // And fast waits pull it back down -> spin again.
  for (int i = 0; i < 32 && !driver.should_busy_poll(); ++i) {
    driver.note_rx_wait(sim::microseconds(5));
  }
  EXPECT_TRUE(driver.should_busy_poll());
}

// Budget expiry must degrade to the blocking interrupt path, not drop
// the datagram: with a budget far below the device round trip the poll
// comes up dry and the reply arrives via the re-armed interrupt.
TEST(BusyPoll, BudgetMissFallsBackToInterrupt) {
  core::VirtioNetTestbed bed{quiet_options(0x9015)};
  bed.socket().set_rx_mode(RxMode::kBusyPoll);
  bed.socket().set_busy_poll_budget(sim::microseconds(1));

  for (u8 i = 0; i < 4; ++i) {
    ASSERT_TRUE(echo_once(bed, i));
  }
  EXPECT_GT(bed.driver().busy_polls(), 0u);
}

// Same seed, same traffic: every mode delivers the same payloads, and
// the poll modes finish no later than the interrupt path (they skip
// IRQ entry and the scheduler wake-up).
TEST(BusyPoll, ModesAgreeOnDataAndPollIsNoSlower) {
  sim::Duration elapsed[3];
  const RxMode modes[] = {RxMode::kInterrupt, RxMode::kBusyPoll,
                          RxMode::kAdaptive};
  for (std::size_t m = 0; m < 3; ++m) {
    core::VirtioNetTestbed bed{quiet_options(0x9016)};
    bed.socket().set_rx_mode(modes[m]);
    const sim::SimTime start = bed.thread().now();
    for (u8 i = 0; i < 16; ++i) {
      ASSERT_TRUE(echo_once(bed, i)) << "mode " << m;
    }
    elapsed[m] = bed.thread().now() - start;
  }
  EXPECT_LE(elapsed[1], elapsed[0]);  // pure poll vs interrupt
  EXPECT_LE(elapsed[2], elapsed[0]);  // adaptive vs interrupt
}

// When the adaptive controller predicts a long wait the socket sleeps
// on the interrupt instead of spinning, and the wait it observes is fed
// back into the EWMA: a fast echo pulls the estimate down.
TEST(BusyPoll, AdaptiveSleepFeedsObservedWait) {
  core::VirtioNetTestbed bed{quiet_options(0x9018)};
  auto& driver = bed.driver();
  const sim::Duration threshold =
      VirtioNetDriver::kBusyPollPolicy.spin_threshold;
  for (int i = 0; i < 32 && driver.should_busy_poll(); ++i) {
    driver.note_rx_wait(threshold * 4);
  }
  ASSERT_FALSE(driver.should_busy_poll());
  const double ewma_before = driver.rx_wait_ewma_us();
  const u64 polls_before = driver.busy_polls();

  bed.socket().set_rx_mode(RxMode::kAdaptive);
  ASSERT_TRUE(echo_once(bed, 0x5a));
  EXPECT_EQ(driver.busy_polls(), polls_before);  // slept, did not spin
  EXPECT_LT(driver.rx_wait_ewma_us(), ewma_before);
  EXPECT_GT(driver.rx_wait_ewma_us(), 0.0);
}

// Interrupt mode must not change because the busy-poll machinery
// exists: two identically seeded beds, one with kick coalescing
// explicitly (re)set to its default, produce bit-identical timelines.
TEST(BusyPoll, InterruptModeUnperturbedByPolicyPlumbing) {
  core::TestbedOptions options;
  options.seed = 0x9017;  // noise left ON: full RNG stream comparison
  core::VirtioNetTestbed a{options};
  core::VirtioNetTestbed b{options};
  b.driver().set_kick_coalesce(1);

  const Bytes payload = make_payload(256, 0x33);
  for (int i = 0; i < 32; ++i) {
    const auto rt_a = a.udp_round_trip(payload);
    const auto rt_b = b.udp_round_trip(payload);
    ASSERT_TRUE(rt_a.ok);
    ASSERT_TRUE(rt_b.ok);
    EXPECT_EQ(rt_a.total, rt_b.total);
    EXPECT_EQ(rt_a.hardware, rt_b.hardware);
  }
  EXPECT_EQ(a.thread().now(), b.thread().now());
  EXPECT_EQ(a.driver().tx_kicks(), b.driver().tx_kicks());
  EXPECT_EQ(a.driver().tx_kicks_coalesced(), 0u);
  EXPECT_EQ(b.driver().tx_kicks_coalesced(), 0u);
}

}  // namespace
}  // namespace vfpga::hostos
