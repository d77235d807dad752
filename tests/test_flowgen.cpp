// Flow-table traffic generator: heavy-tailed sizes, churn bookkeeping,
// RSS pair affinity, pair-set restriction, determinism, port freelists.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "vfpga/net/flowgen.hpp"
#include "vfpga/net/rss.hpp"

namespace vfpga::net {
namespace {

FlowGenConfig tiny_config() {
  FlowGenConfig config;
  config.host_ip = Ipv4Addr{0x0a00'0001};
  config.fpga_ip = Ipv4Addr{0x0a00'0002};
  config.pairs = 8;
  config.flows = 64;
  config.seed = 42;
  return config;
}

// ---- heavy-tailed flow sizes -------------------------------------------------

TEST(FlowGen, FlowSizesAreHeavyTailedBoundedPareto) {
  sim::Xoshiro256 rng{42};
  const FlowGenConfig config = tiny_config();
  constexpr int kN = 20'000;
  std::vector<u64> sizes;
  sizes.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    sizes.push_back(sample_flow_size_packets(rng, config));
  }
  std::sort(sizes.begin(), sizes.end());
  for (const u64 s : sizes) {
    ASSERT_GE(s, config.size_min_packets);
    ASSERT_LE(s, config.size_max_packets);
  }
  // Mice dominate the population...
  EXPECT_LE(sizes[kN / 2], 4u);          // median is a handful of packets
  EXPECT_LE(sizes[kN * 9 / 10], 40u);    // even p90 is modest
  // ...while a fat tail of elephants carries the bytes. For shape 1.25
  // over [1, 4096] the theoretical p99.9 is ~245 packets — three orders
  // of magnitude above the median.
  EXPECT_GE(sizes[kN * 999 / 1000], 150u);
  EXPECT_GE(sizes.back(), 500u);
}

TEST(FlowGen, SizeSamplerIsDeterministicPerSeed) {
  const FlowGenConfig config = tiny_config();
  sim::Xoshiro256 a{42};
  sim::Xoshiro256 b{42};
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(sample_flow_size_packets(a, config),
              sample_flow_size_packets(b, config));
  }
}

// ---- churn bookkeeping -------------------------------------------------------

TEST(FlowGen, ChurnLeaksNoTableEntriesOrPorts) {
  FlowGen gen(tiny_config());
  EXPECT_EQ(gen.flows_created(), 64u);
  EXPECT_EQ(gen.open_flows(), 64u);
  EXPECT_EQ(gen.live_ports(), 64u);

  // Drive every slot through several full flow lifetimes.
  for (int step = 0; step < 20'000; ++step) {
    const u32 slot = static_cast<u32>(step) % gen.slots();
    const FlowGen::Departure d = gen.next_packet(slot);
    if (d.fin) {
      gen.churn_slot(slot);
    }
  }

  EXPECT_EQ(gen.flows_created(),
            gen.flows_completed() + gen.flows_abandoned() + gen.open_flows());
  EXPECT_EQ(gen.open_flows(), 64u);  // churn keeps the population level
  EXPECT_EQ(gen.live_ports(), gen.open_flows());
  EXPECT_GT(gen.flows_completed(), 100u);  // plenty of turnover happened

  // Closing every slot must return all bookkeeping to zero.
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    gen.close_slot(slot);
  }
  EXPECT_EQ(gen.open_flows(), 0u);
  EXPECT_EQ(gen.live_ports(), 0u);
  EXPECT_EQ(gen.flows_created(),
            gen.flows_completed() + gen.flows_abandoned());
}

// ---- RSS pair affinity -------------------------------------------------------

u16 pair_of(const FlowGenConfig& config, u16 src_port) {
  return steer(rss_flow_hash(config.host_ip, src_port, config.fpga_ip,
                             config.fpga_port),
               config.pairs);
}

TEST(FlowGen, EveryFlowSteersToItsAssignedPair) {
  FlowGenConfig config = tiny_config();
  FlowGen gen(config);
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    const FlowGen::Flow& flow = gen.flow(slot);
    EXPECT_EQ(flow.pair, slot % config.pairs);
    EXPECT_EQ(pair_of(config, flow.src_port), flow.pair) << "slot " << slot;
  }
}

TEST(FlowGen, ChurnPreservesPair) {
  FlowGenConfig config = tiny_config();
  FlowGen gen(config);
  const u32 slot = 5;
  const u16 pair_before = gen.flow(slot).pair;
  const u64 id_before = gen.flow(slot).id;

  // Run the slot's flow to completion, then churn: a new flow on the
  // same pair, through a port that steers there.
  while (!gen.next_packet(slot).fin) {
  }
  gen.churn_slot(slot);
  EXPECT_NE(gen.flow(slot).id, id_before);
  EXPECT_EQ(gen.flow(slot).pair, pair_before);
  EXPECT_EQ(pair_of(config, gen.flow(slot).src_port), pair_before);
}

TEST(FlowGen, PairSetRestrictsThePopulation) {
  FlowGenConfig config = tiny_config();
  config.pair_set = {1, 5};
  FlowGen gen(config);
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    const u16 expected = config.pair_set[slot % config.pair_set.size()];
    EXPECT_EQ(gen.flow(slot).pair, expected);
    EXPECT_EQ(pair_of(config, gen.flow(slot).src_port), expected);
  }
}

// ---- determinism -------------------------------------------------------------

TEST(FlowGen, IdenticalSeedsYieldIdenticalTraffic) {
  FlowGen a(tiny_config());
  FlowGen b(tiny_config());
  for (int step = 0; step < 5'000; ++step) {
    const u32 slot = static_cast<u32>(step) % a.slots();
    ASSERT_EQ(a.flow(slot).src_port, b.flow(slot).src_port);
    const FlowGen::Departure da = a.next_packet(slot);
    const FlowGen::Departure db = b.next_packet(slot);
    ASSERT_EQ(da.flow_id, db.flow_id);
    ASSERT_EQ(da.pair, db.pair);
    ASSERT_EQ(da.payload_bytes, db.payload_bytes);
    ASSERT_EQ(da.gap.picos(), db.gap.picos());
    ASSERT_EQ(da.fin, db.fin);
    if (da.fin) {
      ASSERT_EQ(a.churn_slot(slot).picos(), b.churn_slot(slot).picos());
    }
  }
}

// ---- port freelists ---------------------------------------------------------

TEST(FlowGen, ChurnReusesTuplesThroughFreelistsWithoutCarving) {
  FlowGenConfig config = tiny_config();
  config.flows = 32;
  FlowGen gen(config);
  std::set<u16> ports;
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    ports.insert(gen.flow(slot).src_port);
  }
  ASSERT_EQ(ports.size(), gen.slots());  // distinct ports at open
  // Drive every slot through several full churn generations. Each churn
  // releases the slot's port into its pair's freelist and the fresh
  // flow pops from that same freelist — the carve cursor never
  // advances, so no port outside the original working set appears.
  for (int generation = 0; generation < 8; ++generation) {
    for (u32 slot = 0; slot < gen.slots(); ++slot) {
      while (!gen.next_packet(slot).fin) {
      }
      gen.churn_slot(slot);
      EXPECT_EQ(ports.count(gen.flow(slot).src_port), 1u)
          << "slot " << slot << " carved a fresh port during churn";
    }
  }
  EXPECT_EQ(gen.live_ports(), gen.open_flows());
  EXPECT_EQ(gen.flows_created(),
            gen.flows_completed() + gen.flows_abandoned() + gen.open_flows());
}

TEST(FlowGenDeathTest, LiveFlowsBeyondThePortBandAbort) {
  // One pair takes every port in [first_port, kPortBandEnd), so one
  // more live flow than the band holds has no source port left.
  FlowGenConfig config = tiny_config();
  config.pairs = 1;
  config.flows = FlowGen::kPortBandEnd - config.first_port + 1;
  EXPECT_DEATH(FlowGen{config}, "exhausted the client IP's source-port band");
}

}  // namespace
}  // namespace vfpga::net
