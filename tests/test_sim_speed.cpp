// Lane-sharded traffic simulation: the merged statistics must be a pure
// function of the config — worker-thread count included out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "vfpga/harness/sim_speed.hpp"

namespace vfpga::harness {
namespace {

SimSpeedConfig tiny_config() {
  SimSpeedConfig config;
  config.lanes = 2;
  config.flows_per_lane = 8;
  config.packets_per_lane = 40;
  config.size_max_packets = 16;
  config.seed = 7;
  return config;
}

void expect_same_stats(const SimSpeedResult& a, const SimSpeedResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.cross_lane_messages, b.cross_lane_messages);
  EXPECT_EQ(a.cross_lane_received, b.cross_lane_received);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.flows_created, b.flows_created);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_abandoned, b.flows_abandoned);
  EXPECT_EQ(a.sample_count, b.sample_count);
  // Bitwise double equality — merged in a canonical order, the latency
  // distribution cannot depend on which worker ran which lane.
  EXPECT_EQ(a.sim_makespan_us, b.sim_makespan_us);
  EXPECT_EQ(a.latency.mean_us, b.latency.mean_us);
  EXPECT_EQ(a.latency.stddev_us, b.latency.stddev_us);
  EXPECT_EQ(a.latency.p99_us, b.latency.p99_us);
  EXPECT_EQ(a.latency.max_us, b.latency.max_us);
}

TEST(SimSpeed, StatsAreIdenticalAcrossThreadCounts) {
  SimSpeedConfig config = tiny_config();
  config.threads = 1;
  const SimSpeedResult seq = run_sim_speed(config);
  config.threads = 2;
  const SimSpeedResult par = run_sim_speed(config);

  EXPECT_EQ(seq.threads_used, 1u);
  EXPECT_EQ(par.threads_used, 2u);
  expect_same_stats(seq, par);
}

TEST(SimSpeed, WorkloadIsSaneAndLossless) {
  SimSpeedConfig config = tiny_config();
  config.threads = 1;
  const SimSpeedResult r = run_sim_speed(config);
  EXPECT_EQ(r.packets, config.lanes * config.packets_per_lane);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.dropped_messages, 0u);
  EXPECT_GT(r.cross_lane_messages, 0u);  // churn really crossed lanes
  EXPECT_EQ(r.cross_lane_received, r.cross_lane_messages);
  EXPECT_EQ(r.sample_count, r.packets);  // every echo was measured
  EXPECT_GT(r.latency.mean_us, 0.0);
  EXPECT_GT(r.sim_makespan_us, 0.0);
  // Population bookkeeping closed out: every created flow either
  // completed or was abandoned at drain time.
  EXPECT_EQ(r.flows_created, r.flows_completed + r.flows_abandoned);
}

TEST(SimSpeed, AllocatorCountersAreDeterministic) {
  SimSpeedConfig config = tiny_config();
  config.threads = 1;
  const SimSpeedResult seq = run_sim_speed(config);
  config.threads = 2;
  const SimSpeedResult par = run_sim_speed(config);
  // Same events at any thread count -> same pooled-node high water and
  // the same (zero) SmallFn heap spills.
  EXPECT_GT(seq.arena_nodes, 0u);
  EXPECT_EQ(seq.arena_nodes, par.arena_nodes);
  EXPECT_EQ(seq.smallfn_heap_fallbacks, 0u);
  EXPECT_EQ(par.smallfn_heap_fallbacks, 0u);
}

TEST(SimSpeed, NonzeroThreadsIsExactDespiteTheEnvironment) {
  // The bench's 1-thread oracle sets threads = 1 explicitly; the
  // environment must not widen it. Restore whatever the caller had.
  const char* saved = std::getenv("VFPGA_THREADS");
  const std::string previous = saved != nullptr ? saved : "";
  setenv("VFPGA_THREADS", "4", 1);
  SimSpeedConfig config = tiny_config();
  config.threads = 1;
  const SimSpeedResult r = run_sim_speed(config);
  if (saved != nullptr) {
    setenv("VFPGA_THREADS", previous.c_str(), 1);
  } else {
    unsetenv("VFPGA_THREADS");
  }
  EXPECT_EQ(r.threads_used, 1u);
}

TEST(SimSpeed, ResidencyCountersPartitionCommittedWindows) {
  SimSpeedConfig config = tiny_config();
  config.threads = 2;
  const SimSpeedResult r = run_sim_speed(config);
  ASSERT_EQ(r.residency.size(), config.lanes);
  u64 busy_total = 0;
  for (u32 i = 0; i < config.lanes; ++i) {
    EXPECT_EQ(r.residency[i].busy_windows + r.residency[i].idle_windows,
              r.windows)
        << "lane " << i;
    EXPECT_LE(r.residency[i].barrier_waits, r.barriers);
    busy_total += r.residency[i].busy_windows;
  }
  EXPECT_GT(busy_total, 0u);
}

}  // namespace
}  // namespace vfpga::harness
