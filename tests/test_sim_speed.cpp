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
  FlowSoakConfig soak;
  soak.lanes = 4;
  soak.flows_per_lane = 64;
  soak.host_ips_per_lane = 1;
  soak.ticks = 2;
  soak.slots_per_tick = 16;
  soak.threads = 1;
  const FlowSoakResult s = run_flow_soak(soak);
  if (saved != nullptr) {
    setenv("VFPGA_THREADS", previous.c_str(), 1);
  } else {
    unsetenv("VFPGA_THREADS");
  }
  EXPECT_EQ(r.threads_used, 1u);
  EXPECT_EQ(s.threads_used, 1u);
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

FlowSoakConfig tiny_soak_config() {
  FlowSoakConfig config;
  config.lanes = 4;
  config.flows_per_lane = 512;
  config.host_ips_per_lane = 2;
  config.ticks = 24;
  config.slots_per_tick = 256;
  config.size_max_packets = 6;
  config.seed = 1234;
  return config;
}

void expect_same_soak(const FlowSoakResult& a, const FlowSoakResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.ticks_run, b.ticks_run);
  EXPECT_EQ(a.flows_created, b.flows_created);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_open, b.flows_open);
  EXPECT_EQ(a.cross_lane_received, b.cross_lane_received);
  EXPECT_EQ(a.footprint_bytes, b.footprint_bytes);
  EXPECT_EQ(a.sim_makespan_us, b.sim_makespan_us);
}

TEST(SimSpeed, SoakIsDeterministicAcrossThreadCounts) {
  FlowSoakConfig config = tiny_soak_config();
  config.threads = 1;
  const FlowSoakResult seq = run_flow_soak(config);
  config.threads = 4;
  const FlowSoakResult par = run_flow_soak(config);
  expect_same_soak(seq, par);
  EXPECT_EQ(seq.windows, par.windows);
  EXPECT_EQ(seq.window_growths, par.window_growths);
  EXPECT_EQ(seq.cross_lane_messages, par.cross_lane_messages);
}

TEST(SimSpeed, SoakChurnsAndConservesBookkeeping) {
  FlowSoakConfig config = tiny_soak_config();
  config.threads = 1;
  const FlowSoakResult r = run_flow_soak(config);
  EXPECT_EQ(r.table_slots, u64{config.lanes} * config.flows_per_lane);
  EXPECT_EQ(r.ticks_run, u64{config.lanes} * config.ticks);
  EXPECT_GT(r.packets, 0u);
  // Real churn: more flow identities existed than table slots, and the
  // population stayed level (every slot refilled on completion).
  EXPECT_GT(r.flows_created, r.table_slots);
  EXPECT_EQ(r.flows_open, r.table_slots);
  EXPECT_EQ(r.flows_created, r.flows_completed + r.flows_open);
  // Sparse cross-lane traffic flowed and nothing was lost.
  EXPECT_GT(r.cross_lane_messages, 0u);
  EXPECT_EQ(r.cross_lane_received, r.cross_lane_messages);
  // The documented budget holds at tiny scale too (fixed overheads like
  // the steer tables amortize worse here, so give slack over the 48
  // B/flow the million-slot soak gates).
  EXPECT_GT(r.bytes_per_flow, 0.0);
}

}  // namespace
}  // namespace vfpga::harness
