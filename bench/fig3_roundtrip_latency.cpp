// FIG3: Round-trip latency with VirtIO and vendor-provided device
// drivers (paper Fig. 3).
//
// Sweeps payloads 64 B..1 KB, 50,000 packets each (VFPGA_ITERATIONS to
// override), on both testbeds, and prints the distribution summary plus
// ASCII histograms of the latency distributions. Writes
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
  std::fputs(harness::render_fig3(virtio, xdma, /*with_histograms=*/true)
                 .c_str(),
             stdout);
  std::fputs(harness::render_footer(config, virtio, xdma).c_str(), stdout);
  return harness::write_latency_json(config, virtio, xdma,
                                     "fig3_roundtrip_latency")
             ? 0
             : 1;
}
