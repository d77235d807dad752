// Flow-table traffic generator: heavy-tailed sizes, churn bookkeeping,
// RSS pair affinity, pair-set restriction, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
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
      EXPECT_TRUE(gen.churn_slot(slot).has_value());
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

TEST(FlowGen, ReconnectPreservesPortAndPairChurnPreservesPair) {
  FlowGenConfig config = tiny_config();
  FlowGen gen(config);
  const u32 slot = 5;
  const u16 port_before = gen.flow(slot).src_port;
  const u16 pair_before = gen.flow(slot).pair;
  const u64 id_before = gen.flow(slot).id;

  gen.reconnect_slot(slot);
  EXPECT_EQ(gen.flow(slot).src_port, port_before);  // same 4-tuple
  EXPECT_EQ(gen.flow(slot).pair, pair_before);
  EXPECT_NE(gen.flow(slot).id, id_before);  // but a new flow

  // Run the slot's flow to completion, then churn: fresh port, same pair.
  while (true) {
    const FlowGen::Departure d = gen.next_packet(slot);
    if (d.fin) {
      break;
    }
  }
  ASSERT_TRUE(gen.churn_slot(slot).has_value());
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
      const auto ga = a.churn_slot(slot);
      const auto gb = b.churn_slot(slot);
      ASSERT_EQ(ga.has_value(), gb.has_value());
      ASSERT_EQ(ga->picos(), gb->picos());
    }
  }
}

// ---- multi-IP tuple space, freelist reuse, footprint -------------------------

TEST(FlowGen, MultiIpWidensTheTupleSpaceAndSteersCorrectly) {
  FlowGenConfig config = tiny_config();
  config.host_ip_count = 8;
  // Shrink each IP's port band (carving stops at 64k) so a modest
  // population must spill across client IPs, as the million-flow soak
  // does at full scale with the default band.
  config.first_port = 63'980;
  config.flows = 64;
  FlowGen gen(config);
  std::set<u32> ips_seen;
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    const FlowGen::Flow flow = gen.flow(slot);
    ASSERT_GE(flow.src_ip.value, config.host_ip.value);
    ASSERT_LT(flow.src_ip.value, config.host_ip.value + config.host_ip_count);
    ips_seen.insert(flow.src_ip.value);
    // RSS affinity must hold per actual source IP, not just the base.
    EXPECT_EQ(steer(rss_flow_hash(flow.src_ip, flow.src_port, config.fpga_ip,
                                  config.fpga_port),
                    config.pairs),
              flow.pair)
        << "slot " << slot;
  }
  // Carving walks the port band before moving to the next IP, but a
  // population this size with per-pair classification must spill past
  // the first client IP.
  EXPECT_GT(ips_seen.size(), 1u);
}

TEST(FlowGen, ChurnReusesTuplesThroughFreelistsWithoutCarving) {
  FlowGenConfig config = tiny_config();
  config.flows = 32;
  FlowGen gen(config);
  std::set<std::pair<u32, u16>> tuples;
  for (u32 slot = 0; slot < gen.slots(); ++slot) {
    const FlowGen::Flow flow = gen.flow(slot);
    tuples.insert({flow.src_ip.value, flow.src_port});
  }
  ASSERT_EQ(tuples.size(), gen.slots());  // distinct tuples at open
  const u64 footprint_before = gen.footprint_bytes();
  // Drive every slot through several full churn generations. Each churn
  // releases the slot's tuple into its pair's freelist and the fresh
  // flow pops from that same freelist — the carve cursor never
  // advances, so no tuple outside the original working set appears and
  // the footprint cannot grow.
  for (int generation = 0; generation < 8; ++generation) {
    for (u32 slot = 0; slot < gen.slots(); ++slot) {
      while (!gen.next_packet(slot).fin) {
      }
      ASSERT_TRUE(gen.churn_slot(slot).has_value());
      const FlowGen::Flow flow = gen.flow(slot);
      EXPECT_TRUE(tuples.count({flow.src_ip.value, flow.src_port}) == 1)
          << "slot " << slot << " carved a fresh tuple during churn";
    }
  }
  EXPECT_EQ(gen.footprint_bytes(), footprint_before);
  EXPECT_EQ(gen.flows_created(),
            gen.flows_completed() + gen.flows_abandoned() + gen.open_flows());
}

TEST(FlowGen, FootprintCountsLazySteerTablesAndMeetsTheBudget) {
  FlowGenConfig config = tiny_config();
  config.host_ip_count = 2;
  config.flows = 65'536;
  FlowGen gen(config);
  const u64 footprint = gen.footprint_bytes();
  // More than the bare SoA columns (17 B/slot): the lazily built per-IP
  // steer tables and the freelists are real memory and must be counted.
  EXPECT_GT(footprint, static_cast<u64>(gen.slots()) * 17);
  // And still inside the soak budget once the steer tables amortize
  // over a large table (DESIGN.md §15: 48 B/flow at a million slots).
  const double bytes_per_flow =
      static_cast<double>(footprint) / static_cast<double>(gen.slots());
  EXPECT_LE(bytes_per_flow, 48.0);
}

}  // namespace
}  // namespace vfpga::net
