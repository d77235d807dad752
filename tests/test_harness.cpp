// Harness-level tests: parallel sweep determinism (the "same seed, same
// tables at any thread count" guarantee), the VFPGA_THREADS rule, the
// JSON writer behind every BENCH_*.json, and the timeline renderer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vfpga/fpga/timeline.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

namespace vfpga::harness {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.iterations = 150;
  config.warmup = 8;
  config.seed = 99;
  config.payloads = {64, 256};
  return config;
}

/// Both driver sweeps with VFPGA_THREADS pinned to `threads`.
std::pair<SweepResult, SweepResult> sweeps_on(const char* threads) {
  const ExperimentConfig config = tiny_config();
  ::setenv("VFPGA_THREADS", threads, 1);
  std::pair<SweepResult, SweepResult> sweeps{run_virtio_sweep(config),
                                             run_xdma_sweep(config)};
  ::unsetenv("VFPGA_THREADS");
  return sweeps;
}

void expect_same_cells(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.driver_name, b.driver_name);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].payload, b.cells[i].payload);
    EXPECT_EQ(a.cells[i].total_us.values_us(), b.cells[i].total_us.values_us())
        << a.driver_name << " cell " << i;
    EXPECT_EQ(a.cells[i].hardware_us.values_us(),
              b.cells[i].hardware_us.values_us())
        << a.driver_name << " cell " << i;
    EXPECT_EQ(a.cells[i].failures, b.cells[i].failures);
  }
}

// Every sweep runs its cells on the pool; each cell's seed depends only
// on its index, so one worker and four give the same samples.
TEST(ParallelHarness, SweepsIndependentOfThreadCount) {
  const auto [virtio1, xdma1] = sweeps_on("1");
  const auto [virtio4, xdma4] = sweeps_on("4");
  EXPECT_EQ(virtio1.driver_name, "VirtIO");
  EXPECT_EQ(xdma1.driver_name, "XDMA");
  expect_same_cells(virtio1, virtio4);
  expect_same_cells(xdma1, xdma4);
}

// A set VFPGA_THREADS is read by the same rule as --threads; anything
// that rule rejects aborts instead of silently picking a count.
TEST(ParallelHarness, WorkerThreadsRejectsMalformedEnv) {
  for (const char* bad : {"4x", "0", "99999999999999999999"}) {
    ::setenv("VFPGA_THREADS", bad, 1);
    EXPECT_DEATH(worker_threads(16),
                 std::string("error: VFPGA_THREADS=") + bad)
        << bad;
  }
  ::unsetenv("VFPGA_THREADS");
}

TEST(ParallelHarness, RunParallelExecutesEveryTaskOnce) {
  std::vector<int> counts(64, 0);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tasks.emplace_back([&counts, i] { ++counts[i]; });
  }
  run_parallel(std::move(tasks), 8);
  for (int count : counts) {
    EXPECT_EQ(count, 1);
  }
}

TEST(ParallelHarness, WorkerThreadsRespectsEnvAndCellCount) {
  ::setenv("VFPGA_THREADS", "3", 1);
  EXPECT_EQ(worker_threads(10), 3u);
  EXPECT_EQ(worker_threads(2), 2u);  // capped at cell count
  ::unsetenv("VFPGA_THREADS");
  EXPECT_GE(worker_threads(16), 1u);
}

TEST(ParallelHarness, WorkerThreadsCliRequestBeatsHardwareButLosesToEnv) {
  ::unsetenv("VFPGA_THREADS");
  // A --threads request overrides the hardware default...
  EXPECT_EQ(worker_threads(16, 3), 3u);
  EXPECT_EQ(worker_threads(16, 7), 7u);
  // ...and still clamps to the cell count.
  EXPECT_EQ(worker_threads(2, 7), 2u);
  // cli_request == 0 means "not given": falls back to the hardware
  // default, which is always at least one worker.
  EXPECT_GE(worker_threads(16, 0), 1u);
  // The environment is the operator's override of last resort and must
  // win over the command line (CI pins determinism gates with it).
  ::setenv("VFPGA_THREADS", "2", 1);
  EXPECT_EQ(worker_threads(16, 7), 2u);
  // Env wins, then the cell clamp still applies on top.
  EXPECT_EQ(worker_threads(1, 7), 1u);
  ::unsetenv("VFPGA_THREADS");
}

TEST(ParallelHarness, WorkerThreadsClampsOversizedEnvOverride) {
  // An env override larger than the cell count must still clamp: 64
  // requested threads with 4 cells is 4 workers, not 64 idle spawns.
  ::setenv("VFPGA_THREADS", "64", 1);
  EXPECT_EQ(worker_threads(4), 4u);
  EXPECT_EQ(worker_threads(1), 1u);
  ::unsetenv("VFPGA_THREADS");
  // Degenerate cell counts still yield a usable pool size.
  EXPECT_EQ(worker_threads(0), 1u);
}

TEST(Timeline, RendersCapturesWithDeltas) {
  using fpga::CounterEvent;
  fpga::PerfCounterBank counters;
  counters.capture(CounterEvent::kNotify,
                   sim::SimTime{} + sim::nanoseconds(80));
  counters.capture(CounterEvent::kH2cIssue,
                   sim::SimTime{} + sim::nanoseconds(1680));
  counters.capture(CounterEvent::kIrqSent,
                   sim::SimTime{} + sim::microseconds(12));
  const std::string text = fpga::render_timeline(counters);
  EXPECT_NE(text.find("notify"), std::string::npos);
  EXPECT_NE(text.find("h2c_issue"), std::string::npos);
  EXPECT_NE(text.find("irq_sent"), std::string::npos);
  // Delta between the first two events: 1600 ns.
  EXPECT_NE(text.find("1600"), std::string::npos);

  // Windowing keeps only the tail.
  const std::string tail = fpga::render_timeline(counters, 1);
  EXPECT_EQ(tail.find("notify"), std::string::npos);
  EXPECT_NE(tail.find("irq_sent"), std::string::npos);
}

/// Every number written under `"key": ` in `text`, in document order.
std::vector<double> values_of(const std::string& text, const std::string& key) {
  std::vector<double> values;
  const std::string needle = "\"" + key + "\": ";
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    const char* begin = text.data() + at + needle.size();
    const char* end = text.data() + text.size();
    double value = 0;
    const auto result = std::from_chars(begin, end, value);
    EXPECT_EQ(result.ec, std::errc{}) << key;
    values.push_back(value);
  }
  return values;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  return {std::istreambuf_iterator<char>(file), {}};
}

TEST(LatencyJson, RoundTripsThroughFile) {
  const ExperimentConfig config = tiny_config();
  const SweepResult virtio = run_virtio_sweep(config);
  const SweepResult xdma = run_xdma_sweep(config);
  std::string dir = ::testing::TempDir() + "vfpga_json_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ::setenv("VFPGA_JSON_DIR", dir.c_str(), 1);
  ASSERT_TRUE(write_latency_json(config, virtio, xdma, "test"));
  ::unsetenv("VFPGA_JSON_DIR");

  const std::string path = dir + "/BENCH_latency.json";
  const std::string text = read_file(path);
  std::vector<double> hw;
  std::vector<double> sw;
  std::vector<double> samples;
  for (const auto* sweep : {&virtio, &xdma}) {
    for (const CellResult& cell : sweep->cells) {
      hw.push_back(cell.hardware_us.mean());
      sw.push_back(cell.software_us.mean());
      samples.push_back(static_cast<double>(cell.total_us.count()));
    }
  }
  EXPECT_EQ(hw.size(), 4u);  // 2 drivers x 2 payloads
  EXPECT_EQ(values_of(text, "hw_mean_us"), hw);  // bit-exact
  EXPECT_EQ(values_of(text, "sw_mean_us"), sw);
  EXPECT_EQ(values_of(text, "samples"), samples);
  EXPECT_EQ(values_of(text, "min_us").size(), 4u);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(JsonWriter, NestsAndSeparatesWithCommas) {
  Json doc;
  doc.begin_object()
      .field("n", 1)
      .begin_object("inner")
      .field("flag", true)
      .end_object()
      .begin_array("list")
      .begin_object()
      .field("s", "x")
      .end_object()
      .begin_object()
      .end_object()
      .end_array()
      .begin_array("empty")
      .end_array()
      .field("last", false)
      .end_object();
  EXPECT_EQ(doc.str(),
            "{\n"
            "  \"n\": 1,\n"
            "  \"inner\": {\n"
            "    \"flag\": true\n"
            "  },\n"
            "  \"list\": [\n"
            "    {\n"
            "      \"s\": \"x\"\n"
            "    },\n"
            "    {}\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"last\": false\n"
            "}\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  Json doc;
  doc.begin_object()
      .field("k\"", std::string_view{"a\"b\\c\n\x01\x1f", 8})
      .end_object();
  EXPECT_EQ(doc.str(),
            "{\n  \"k\\\"\": \"a\\\"b\\\\c\\u000a\\u0001\\u001f\"\n}\n");
}

TEST(JsonWriter, DoublesAreShortestAndReadBackBitExact) {
  const double values[] = {0.1,      1.0 / 3.0, 2.0 / 3.0, 1e300,
                           5e-324,   -2.5,      0.0,       123456.789,
                           37.21996, 1e21,      4.0};
  Json doc;
  doc.begin_object();
  for (const double value : values) {
    doc.field("v", value);
  }
  doc.end_object();
  const std::vector<double> read = values_of(doc.str(), "v");
  ASSERT_EQ(read.size(), std::size(values));
  for (std::size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(read[i]), std::bit_cast<u64>(values[i]))
        << values[i];
  }
  EXPECT_NE(doc.str().find("\"v\": 0.1,"), std::string::npos);
  EXPECT_NE(doc.str().find("\"v\": 4\n"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  Json doc;
  doc.begin_object()
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(doc.str(),
            "{\n  \"nan\": null,\n  \"inf\": null,\n  \"ninf\": null\n}\n");
}

TEST(JsonWriter, WriteBenchJsonFailsForMissingDirectory) {
  ::setenv("VFPGA_JSON_DIR", "/nonexistent/vfpga-json-dir", 1);
  EXPECT_FALSE(write_bench_json("BENCH_test.json", "{}\n"));
  ::unsetenv("VFPGA_JSON_DIR");
}

TEST(Timeline, EmptyBankRendersPlaceholder) {
  fpga::PerfCounterBank counters;
  EXPECT_EQ(fpga::render_timeline(counters), "(no captures)\n");
}

}  // namespace
}  // namespace vfpga::harness
