// Sharded event lanes: thread-count determinism, the conservative-window
// invariant, cross-lane messaging semantics, and horizon skip-ahead.
#include <gtest/gtest.h>

#include <vector>

#include "vfpga/sim/event_lane.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::sim {
namespace {

// ---- cross-lane ping-pong ----------------------------------------------------

/// A token relayed between two lanes through the message rings; each hop
/// logs (lane, simulated time) on the lane that executed it.
class Relay {
 public:
  Relay(LaneSet& set, u32 hops) : set_(set), hops_wanted_(hops) {}

  void start() {
    set_.lane(0).scheduler().schedule_at(SimTime{}, [this] { hop(0); });
  }

  void hop(u32 lane) {
    log_.push_back({lane, set_.lane(lane).now().picos()});
    if (static_cast<u32>(log_.size()) >= hops_wanted_) {
      return;
    }
    const u32 dst = 1 - lane;
    set_.post(lane, dst, set_.horizon(), [this, dst] { hop(dst); });
  }

  struct Entry {
    u32 lane;
    i64 picos;
  };
  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }

 private:
  LaneSet& set_;
  u32 hops_wanted_;
  std::vector<Entry> log_;
};

TEST(EventLane, CrossLanePingPongAlternatesAndAdvancesTime) {
  LaneSetConfig config;
  config.lanes = 2;
  config.window = microseconds(10);
  LaneSet set(config);
  Relay relay(set, 9);
  relay.start();
  const LaneSet::RunStats stats = set.run(1);

  ASSERT_EQ(relay.log().size(), 9u);
  EXPECT_EQ(stats.messages, 8u);  // every hop after the first is a message
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(set.lane(0).received_messages() +
                set.lane(1).received_messages(),
            8u);
  for (std::size_t i = 0; i < relay.log().size(); ++i) {
    EXPECT_EQ(relay.log()[i].lane, i % 2) << "hop " << i;
    if (i > 0) {
      // A message can never execute in the window it was sent from.
      EXPECT_GT(relay.log()[i].picos, relay.log()[i - 1].picos);
    }
  }
}

// ---- determinism at any worker count -----------------------------------------

/// Per-lane workload state. Only the owning lane's worker ever touches
/// an entry: local events mutate work[id], cross-lane messages mutate
/// work[dst] but execute on lane dst.
struct LaneWork {
  LaneSet* set = nullptr;
  std::vector<LaneWork>* all = nullptr;
  u32 id = 0;
  Xoshiro256 rng{0};
  u64 checksum = 0;
  u32 fired = 0;
  u32 limit = 0;
  SimTime last_step{};
};

void lane_step(LaneWork& w) {
  const u64 draw = w.rng();
  // Order-sensitive mix: any reordering of local events vs delivered
  // messages changes the final checksum.
  w.checksum = w.checksum * 1'000'003ull + (draw >> 32);
  ++w.fired;
  w.last_step = w.set->lane(w.id).now();
  if (w.fired % 3 == 0) {
    const u32 dst = (w.id + 1) % static_cast<u32>(w.all->size());
    std::vector<LaneWork>* all = w.all;
    const u64 value = draw & 0xffff;
    w.set->post(w.id, dst, w.set->horizon(), [all, dst, value] {
      (*all)[dst].checksum = (*all)[dst].checksum * 31ull + value;
    });
  }
  if (w.fired < w.limit) {
    const Duration gap = from_nanos(50.0 + static_cast<double>(w.rng() % 200'000));
    std::vector<LaneWork>* all = w.all;
    const u32 id = w.id;
    w.set->lane(w.id).scheduler().schedule_after(
        gap, [all, id] { lane_step((*all)[id]); });
  }
}

struct WorkloadSnapshot {
  std::vector<u64> checksums;
  std::vector<u32> fired;
  std::vector<SimTime> clocks;  ///< each lane's last local step
  u64 windows = 0;
  u64 events = 0;
  u64 messages = 0;
  u64 dropped = 0;

  bool operator==(const WorkloadSnapshot&) const = default;
};

/// Four lanes, 200 local steps each, a cross-lane message every third
/// step; a 25us window.
WorkloadSnapshot run_workload(unsigned threads,
                              LaneSet::RunStats* stats_out = nullptr) {
  LaneSetConfig config;
  config.lanes = 4;
  config.window = microseconds(25);
  LaneSet set(config);
  std::vector<LaneWork> work(config.lanes);
  for (u32 i = 0; i < config.lanes; ++i) {
    work[i] = LaneWork{&set, &work, i, Xoshiro256{1000 + i}, 0, 0, 200};
    set.lane(i).scheduler().schedule_at(
        SimTime{} + nanoseconds(i + 1),
        [&work, i] { lane_step(work[i]); });
  }
  const LaneSet::RunStats stats = set.run(threads);
  WorkloadSnapshot snap;
  for (const LaneWork& w : work) {
    snap.checksums.push_back(w.checksum);
    snap.fired.push_back(w.fired);
    snap.clocks.push_back(w.last_step);
  }
  snap.windows = stats.windows;
  snap.events = stats.events;
  snap.messages = stats.messages;
  snap.dropped = stats.dropped;
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return snap;
}

TEST(EventLane, BitIdenticalAtAnyThreadCount) {
  const WorkloadSnapshot one = run_workload(1);
  EXPECT_EQ(one.fired, (std::vector<u32>{200, 200, 200, 200}));
  EXPECT_GT(one.messages, 0u);
  EXPECT_EQ(one.dropped, 0u);
  EXPECT_EQ(run_workload(2), one);
  EXPECT_EQ(run_workload(4), one);
  EXPECT_EQ(run_workload(9), one);  // clamped to the lane count
}

// ---- conservative-window invariant -------------------------------------------

TEST(EventLaneDeathTest, PostingInsideTheExecutingWindowAborts) {
  LaneSetConfig config;
  config.lanes = 2;
  config.window = microseconds(10);
  LaneSet set(config);
  // Drive the horizon forward, then try to post behind it.
  set.lane(0).scheduler().schedule_at(SimTime{} + microseconds(95), [] {});
  set.run(1);
  EXPECT_GE(set.horizon(), SimTime{} + microseconds(100));
  EXPECT_DEATH(set.post(0, 1, SimTime{} + microseconds(5), [] {}), "");
}

// ---- horizon skip-ahead ------------------------------------------------------

TEST(EventLane, IdleStretchesCostOneWindowNotMany) {
  LaneSetConfig config;
  config.lanes = 1;
  config.window = microseconds(100);
  LaneSet set(config);
  int fired = 0;
  set.lane(0).scheduler().schedule_at(SimTime{} + microseconds(1),
                                      [&fired] { ++fired; });
  set.lane(0).scheduler().schedule_at(SimTime{} + milliseconds(10),
                                      [&fired] { ++fired; });
  const LaneSet::RunStats stats = set.run(1);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(stats.events, 2u);
  // Window 1 covers the 1us event; the set then jumps straight to the
  // window containing t=10ms instead of 99 empty barriers.
  EXPECT_EQ(stats.windows, 2u);
}

// ---- residency ---------------------------------------------------------------

TEST(EventLane, ResidencyPartitionsCommittedWindowsDeterministically) {
  LaneSet::RunStats one;
  LaneSet::RunStats four;
  run_workload(1, &one);
  run_workload(4, &four);
  ASSERT_EQ(one.residency.size(), 4u);
  u64 total_busy = 0;
  for (u32 i = 0; i < 4; ++i) {
    const LaneSet::LaneResidency& lane = one.residency[i];
    // Every window is attributed exactly once per lane.
    EXPECT_EQ(lane.busy_windows + lane.idle_windows, one.windows)
        << "lane " << i;
    EXPECT_LE(lane.barrier_waits, one.barriers);
    total_busy += lane.busy_windows;
    EXPECT_EQ(lane.busy_windows, four.residency[i].busy_windows);
    EXPECT_EQ(lane.idle_windows, four.residency[i].idle_windows);
    EXPECT_EQ(lane.barrier_waits, four.residency[i].barrier_waits);
  }
  EXPECT_GT(total_busy, 0u);
}

// ---- ring overflow -----------------------------------------------------------

TEST(EventLane, FullRingDropsAreCountedNotLost) {
  LaneSetConfig config;
  config.lanes = 2;
  config.window = microseconds(10);
  LaneSet set(config);
  u32 delivered = 0;
  set.lane(0).scheduler().schedule_at(SimTime{}, [&set, &delivered] {
    for (u32 i = 0; i < LaneSet::kRingCapacity + 3; ++i) {
      set.post(0, 1, set.horizon(), [&delivered] { ++delivered; });
    }
  });
  const LaneSet::RunStats stats = set.run(1);
  EXPECT_EQ(stats.messages, LaneSet::kRingCapacity);
  EXPECT_EQ(stats.dropped, 3u);
  EXPECT_EQ(delivered, LaneSet::kRingCapacity);
  EXPECT_EQ(set.lane(1).received_messages(), LaneSet::kRingCapacity);
}

}  // namespace
}  // namespace vfpga::sim
