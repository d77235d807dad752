// TAB1: Tail latencies for data movement with VirtIO and XDMA (paper
// Table I): p95 / p99 / p99.9 per payload for both drivers. Writes
// BENCH_latency.json ($VFPGA_JSON_DIR honoured); exits 1 if it cannot.
#include <cstdio>

#include "bench_cli.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

int main(int argc, char** argv) {
  using namespace vfpga;
  const harness::ExperimentConfig config =
      bench::paper_config(bench::parse_args(argc, argv, 0));
  const harness::SweepResult virtio = harness::run_virtio_sweep(config);
  const harness::SweepResult xdma = harness::run_xdma_sweep(config);
  std::fputs(harness::render_table1(virtio, xdma).c_str(), stdout);
  std::fputs(harness::render_footer(config, virtio, xdma).c_str(), stdout);
  const bool written =
      harness::write_latency_json(config, virtio, xdma, "table1_tail_latency");
  std::puts(
      "\nPaper Table I (Alinx AX7A200 testbed) for shape comparison:\n"
      "  64B:   95% 35.1/51.3  99% 44.8/70.1  99.9% 66.5/85.8 (V/X)\n"
      "  1024B: 95% 57.8/72.8  99% 65.9/76.7  99.9% 99.6/97.3 (V/X)");
  return written ? 0 : 1;
}
