// Reactor subsystem tests: the message ring's visibility/drop
// semantics, poller dispatch, and dry windows spun to a next-work hint.
#include <gtest/gtest.h>

#include "vfpga/core/testbed.hpp"
#include "vfpga/reactor/message_ring.hpp"
#include "vfpga/reactor/reactor.hpp"

namespace vfpga::reactor {
namespace {

struct ReactorFixture : ::testing::Test {
  sim::Xoshiro256 rng{42};
  sim::NoiseModel quiet{sim::NoiseConfig{.enabled = false}};
  hostos::CostModelConfig costs = hostos::CostModelConfig::fedora_defaults();
  hostos::HostThread thread{rng, costs, quiet};
  Reactor reactor{{.id = 1}, thread};

  /// What the next reactor_poll_iteration costs (quiet noise adds
  /// nothing), drawn from a copy of the thread's stream.
  [[nodiscard]] sim::Duration next_iteration_cost() const {
    sim::Xoshiro256 copy = rng;
    return costs.reactor_poll_iteration.sample(copy);
  }
};

// ---- message ring ---------------------------------------------------------

TEST(MessageRing, CapacityRoundsUpAndDropsWhenFull) {
  MessageRing ring{3};
  EXPECT_EQ(ring.capacity(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push([] {}, sim::SimTime{}));
  }
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push([] {}, sim::SimTime{}));
  EXPECT_EQ(ring.dropped_full(), 1u);
  EXPECT_EQ(ring.enqueued(), 4u);
  EXPECT_EQ(ring.high_watermark(), 4u);
}

TEST(MessageRing, InvisibleHeadBlocksFifoOrder) {
  MessageRing ring{4};
  int ran = 0;
  // Head posted "in the future" (producer core ahead of the consumer);
  // the visible message behind it must NOT overtake — FIFO means the
  // consumer advances its clock instead.
  ASSERT_TRUE(ring.try_push([&] { ran = 1; }, sim::SimTime{100}));
  ASSERT_TRUE(ring.try_push([&] { ran = 2; }, sim::SimTime{0}));
  EXPECT_FALSE(ring.try_pop(sim::SimTime{50}).has_value());
  ASSERT_TRUE(ring.next_visible_at().has_value());
  EXPECT_EQ(ring.next_visible_at()->picos(), 100);

  auto head = ring.try_pop(sim::SimTime{100});
  ASSERT_TRUE(head.has_value());
  (*head)();
  EXPECT_EQ(ran, 1);
  auto second = ring.try_pop(sim::SimTime{100});
  ASSERT_TRUE(second.has_value());
  (*second)();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.dequeued(), 2u);
}

// ---- pollers --------------------------------------------------------------

TEST_F(ReactorFixture, PollerRunsEveryIterationWithStats) {
  u32 runs = 0;
  reactor.register_poller("count", [&](sim::SimTime) {
    ++runs;
    return runs <= 2;  // busy twice, then dry
  });
  const sim::SimTime start = thread.now();
  for (int i = 0; i < 5; ++i) {
    reactor.poll_once();
  }
  EXPECT_EQ(runs, 5u);
  EXPECT_GT(thread.now(), start);  // every iteration costs loop time
  EXPECT_EQ(reactor.stats().iterations, 5u);
  EXPECT_EQ(reactor.stats().busy_iterations, 2u);

  const auto stats = reactor.poller_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "count");
  EXPECT_EQ(stats[0].runs, 5u);
  EXPECT_EQ(stats[0].busy_runs, 2u);
}

TEST_F(ReactorFixture, PollerCanUnregisterItself) {
  u32 runs = 0;
  u64 id = 0;
  id = reactor.register_poller("self", [&](sim::SimTime) {
    ++runs;
    if (runs == 3) {
      reactor.unregister_poller(id);
    }
    return true;
  });
  for (int i = 0; i < 6; ++i) {
    reactor.poll_once();
  }
  EXPECT_EQ(runs, 3u);
  EXPECT_TRUE(reactor.poller_stats().empty());
}

TEST_F(ReactorFixture, RegisterFromInsideAPollerIsAContractFailure) {
  reactor.register_poller("registers", [&](sim::SimTime) {
    reactor.register_poller("inner", [](sim::SimTime) { return false; });
    return false;
  });
  EXPECT_DEATH(reactor.poll_once(), "polling_");
}

TEST_F(ReactorFixture, DeadPollersAreCompactedAfterTheIteration) {
  u32 kept_runs = 0;
  const u64 doomed =
      reactor.register_poller("doomed", [](sim::SimTime) { return false; });
  reactor.register_poller("kept", [&](sim::SimTime) {
    ++kept_runs;
    return false;
  });
  reactor.unregister_poller(doomed);
  reactor.poll_once();
  reactor.poll_once();
  EXPECT_EQ(kept_runs, 2u);
  const auto stats = reactor.poller_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "kept");
  // Registering between iterations stays allowed.
  reactor.register_poller("late", [](sim::SimTime) { return true; });
  EXPECT_TRUE(reactor.poll_once());
}

// ---- dry windows ------------------------------------------------------------

TEST_F(ReactorFixture, DryWalkSpinsToTheEarliestHint) {
  const sim::SimTime early = thread.now() + sim::microseconds(50);
  const sim::SimTime late = thread.now() + sim::microseconds(80);
  reactor.register_poller("late", [&](sim::SimTime) {
    thread.note_next_work(late);
    return false;
  });
  reactor.register_poller("early", [&](sim::SimTime) {
    thread.note_next_work(early);
    return false;
  });
  const sim::SimTime walked = thread.now() + next_iteration_cost();
  EXPECT_FALSE(reactor.poll_once());
  EXPECT_EQ(thread.now(), early);
  EXPECT_EQ(reactor.stats().iterations, 1u);
  EXPECT_EQ(reactor.stats().dry_windows, 1u);
  EXPECT_EQ(reactor.stats().dry_time, early - walked);
}

TEST_F(ReactorFixture, DryWalkWithoutHintPaysOnlyTheIteration) {
  reactor.register_poller("dry", [](sim::SimTime) { return false; });
  const sim::SimTime expected = thread.now() + next_iteration_cost();
  EXPECT_FALSE(reactor.poll_once());
  EXPECT_EQ(thread.now(), expected);
  EXPECT_EQ(reactor.stats().dry_windows, 0u);
  EXPECT_EQ(reactor.stats().dry_time, sim::Duration{});
}

TEST_F(ReactorFixture, HintAtOrBeforeNowIsIgnored) {
  // First walk: a hint exactly at the poller's now(); second walk: one
  // picosecond before it. The loop cost already passed both.
  i64 back = 0;
  reactor.register_poller("past", [&](sim::SimTime now) {
    thread.note_next_work(sim::SimTime{now.picos() - back});
    return false;
  });
  for (; back <= 1; ++back) {
    const sim::SimTime expected = thread.now() + next_iteration_cost();
    EXPECT_FALSE(reactor.poll_once());
    EXPECT_EQ(thread.now(), expected) << back << " ps before now";
  }
  EXPECT_EQ(reactor.stats().dry_windows, 0u);
}

TEST_F(ReactorFixture, HintLeftBeforeTheIterationIsDiscarded) {
  // wait_polled's harvest can leave a hint on the thread outside any
  // reactor iteration; the next walk must not spin to it.
  thread.note_next_work(thread.now() + sim::microseconds(100));
  reactor.register_poller("dry", [](sim::SimTime) { return false; });
  const sim::SimTime expected = thread.now() + next_iteration_cost();
  EXPECT_FALSE(reactor.poll_once());
  EXPECT_EQ(thread.now(), expected);
  EXPECT_EQ(reactor.stats().dry_windows, 0u);
  EXPECT_FALSE(thread.take_next_work().has_value());
}

}  // namespace
}  // namespace vfpga::reactor
