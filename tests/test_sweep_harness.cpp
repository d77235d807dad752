// Sweep harness tests: sweeps whose independent cells run on the worker
// pool must (a) compute each cell bit-identically to the standalone
// single-cell runner, and (b) be bit-identical at any worker-thread
// count (VFPGA_THREADS=1 is the oracle CI byte-diffs against).
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "vfpga/harness/blk_bench.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/harness/streaming.hpp"

namespace vfpga::hostos {

// Names the parameter in gtest's test names and failure messages.
static void PrintTo(RxMode mode, std::ostream* os) {
  switch (mode) {
    case RxMode::kInterrupt:
      *os << "interrupt";
      return;
    case RxMode::kBusyPoll:
      *os << "busy_poll";
      return;
    case RxMode::kAdaptive:
      *os << "adaptive";
      return;
  }
}

}  // namespace vfpga::hostos

namespace vfpga::harness {
namespace {

/// Scoped VFPGA_THREADS override (restores the prior value on exit so
/// tests compose under ctest's in-process shuffling).
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* prev = std::getenv("VFPGA_THREADS")) {
      saved_ = prev;
    }
    ::setenv("VFPGA_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (saved_.empty()) {
      ::unsetenv("VFPGA_THREADS");
    } else {
      ::setenv("VFPGA_THREADS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

BlkBenchConfig tiny_blk_config() {
  BlkBenchConfig config;
  config.seed = 7151;
  config.ops_per_cell = 48;
  config.warmup_ops = 8;
  config.payloads = {512, 4096};
  config.queue_depths = {1, 4};
  return config;
}

void expect_cells_equal(const BlkCellResult& a, const BlkCellResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.mode, b.mode) << label;
  EXPECT_EQ(a.payload, b.payload) << label;
  EXPECT_EQ(a.queue_depth, b.queue_depth) << label;
  EXPECT_EQ(a.ops, b.ops) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
  EXPECT_EQ(a.iops, b.iops) << label;  // bitwise: same simulated span
  EXPECT_EQ(a.latency_us.values_us(), b.latency_us.values_us()) << label;
  EXPECT_EQ(a.reactor_iterations, b.reactor_iterations) << label;
  EXPECT_EQ(a.reactor_busy_iterations, b.reactor_busy_iterations) << label;
}

TEST(SweepHarness, BlkSweepMatchesStandaloneCells) {
  const BlkBenchConfig config = tiny_blk_config();
  const BlkSweepResult sweep = run_blk_sweep(config);
  ASSERT_EQ(sweep.cells.size(),
            config.payloads.size() * config.queue_depths.size() * 2);

  // Canonical order: payload-major, then depth, then {interrupt,
  // reactor}. Each cell must match a standalone run exactly — the pool
  // moves cells between threads, never inside the simulation.
  std::size_t i = 0;
  for (const u32 payload : config.payloads) {
    for (const u16 depth : config.queue_depths) {
      for (const BlkCompletionMode mode :
           {BlkCompletionMode::kInterrupt, BlkCompletionMode::kReactorPolled}) {
        const BlkCellResult standalone =
            run_blk_cell(config, mode, payload, depth);
        expect_cells_equal(sweep.cells[i], standalone,
                           "cell " + std::to_string(i));
        ++i;
      }
    }
  }
}

TEST(SweepHarness, BlkSweepDeterministicAcrossThreads) {
  const BlkBenchConfig config = tiny_blk_config();
  BlkSweepResult one;
  {
    ScopedThreadsEnv env{"1"};
    one = run_blk_sweep(config);
  }
  BlkSweepResult four;
  {
    ScopedThreadsEnv env{"4"};
    four = run_blk_sweep(config);
  }
  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    expect_cells_equal(one.cells[i], four.cells[i],
                       "cell " + std::to_string(i));
  }
}

StreamingConfig tiny_streaming_config() {
  StreamingConfig config;
  config.iterations = 24;
  config.warmup = 4;
  config.seed = 3307;
  config.payloads = {1024, 16384};
  return config;
}

void expect_cells_equal(const StreamingCellResult& a,
                        const StreamingCellResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.mode, b.mode) << label;
  EXPECT_EQ(a.packed, b.packed) << label;
  EXPECT_EQ(a.payload, b.payload) << label;
  EXPECT_EQ(a.gbps, b.gbps) << label;  // bitwise: same simulated span
  EXPECT_EQ(a.rtt_us.values_us(), b.rtt_us.values_us()) << label;
  EXPECT_EQ(a.failures, b.failures) << label;
  EXPECT_EQ(a.tx_sg_segments, b.tx_sg_segments) << label;
  EXPECT_EQ(a.rx_merged_frames, b.rx_merged_frames) << label;
  EXPECT_EQ(a.tx_superframes, b.tx_superframes) << label;
  EXPECT_EQ(a.sw_gso_segments, b.sw_gso_segments) << label;
  EXPECT_EQ(a.gro_coalesced, b.gro_coalesced) << label;
  EXPECT_EQ(a.rx_gro_frames, b.rx_gro_frames) << label;
}

TEST(SweepHarness, StreamingSweepMatchesStandaloneCells) {
  const StreamingConfig config = tiny_streaming_config();
  const StreamingSweepResult sweep = run_streaming_sweep(config);
  constexpr StreamMode kModes[] = {
      StreamMode::kCopy,        StreamMode::kChained,
      StreamMode::kIndirect,    StreamMode::kMergeable,
      StreamMode::kSegmentedSw, StreamMode::kOffload};
  ASSERT_EQ(sweep.cells.size(), 2 * config.payloads.size() * 6);

  std::size_t i = 0;
  for (const bool packed : {false, true}) {
    for (const u64 payload : config.payloads) {
      for (const StreamMode mode : kModes) {
        const StreamingCellResult standalone =
            run_streaming_cell(config, mode, packed, payload);
        expect_cells_equal(sweep.cells[i], standalone,
                           "cell " + std::to_string(i));
        ++i;
      }
    }
  }
}

TEST(SweepHarness, StreamingSweepDeterministicAcrossThreads) {
  const StreamingConfig config = tiny_streaming_config();
  StreamingSweepResult one;
  {
    ScopedThreadsEnv env{"1"};
    one = run_streaming_sweep(config);
  }
  StreamingSweepResult four;
  {
    ScopedThreadsEnv env{"4"};
    four = run_streaming_sweep(config);
  }
  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    expect_cells_equal(one.cells[i], four.cells[i],
                       "cell " + std::to_string(i));
  }
}

// The three receive paths, paced: pure poll spins the gap, the others
// sleep it, so each mode's residency and driver counters are checked too.
class SweepHarnessMultiFlow : public ::testing::TestWithParam<hostos::RxMode> {
};

TEST_P(SweepHarnessMultiFlow, DeterministicAcrossThreads) {
  MultiFlowConfig config;
  config.queue_pairs = 2;
  config.flows = 4;
  config.packets_per_flow = 16;
  config.warmup_per_flow = 2;
  config.trials = 4;
  config.seed = 913;
  config.rx_mode = GetParam();
  config.pacing_gap = sim::microseconds(25);
  MultiFlowResult one;
  {
    ScopedThreadsEnv env{"1"};
    one = run_multi_flow(config);
  }
  MultiFlowResult four;
  {
    ScopedThreadsEnv env{"4"};
    four = run_multi_flow(config);
  }
  ASSERT_EQ(one.per_flow.size(), four.per_flow.size());
  for (std::size_t f = 0; f < one.per_flow.size(); ++f) {
    const std::string label = "flow " + std::to_string(f);
    EXPECT_EQ(one.per_flow[f].pair, four.per_flow[f].pair) << label;
    EXPECT_EQ(one.per_flow[f].completed, four.per_flow[f].completed) << label;
    EXPECT_EQ(one.per_flow[f].failures, four.per_flow[f].failures) << label;
    EXPECT_EQ(one.per_flow[f].latency_us.values_us(),
              four.per_flow[f].latency_us.values_us())
        << label;
  }
  EXPECT_EQ(one.all_latency_us.values_us(), four.all_latency_us.values_us());
  EXPECT_EQ(one.failures, four.failures);
  EXPECT_EQ(one.aggregate_mpps, four.aggregate_mpps);  // kpps, bitwise
  EXPECT_EQ(one.mean_makespan_us, four.mean_makespan_us);
  EXPECT_EQ(one.cross_pair_rx, four.cross_pair_rx);
  EXPECT_EQ(one.cpu_residency, four.cpu_residency);  // bitwise
  EXPECT_EQ(one.poll_share, four.poll_share);
  EXPECT_EQ(one.busy_polls, four.busy_polls);
  EXPECT_EQ(one.busy_poll_harvested, four.busy_poll_harvested);
  EXPECT_EQ(one.busy_poll_spins, four.busy_poll_spins);
  EXPECT_EQ(one.tx_kicks, four.tx_kicks);
  EXPECT_EQ(one.tx_packets, four.tx_packets);
  EXPECT_GT(one.all_latency_us.count(), 0u);
  EXPECT_GT(one.cpu_residency, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    RxModes, SweepHarnessMultiFlow,
    ::testing::Values(hostos::RxMode::kInterrupt, hostos::RxMode::kBusyPoll,
                      hostos::RxMode::kAdaptive),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace vfpga::harness
