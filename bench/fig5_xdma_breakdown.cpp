// FIG5: Data movement latency breakdown with the vendor-provided driver
// (paper Fig. 5). Note the paper's observation: with XDMA the software
// time exceeds the hardware time — the reverse of the VirtIO breakdown.
#include <cstdio>

#include "bench_cli.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/xdma_bench.hpp"

int main(int argc, char** argv) {
  using namespace vfpga;
  const harness::ExperimentConfig config =
      bench::paper_config(bench::parse_args(argc, argv, 0));
  const harness::SweepResult sweep = harness::run_xdma_sweep(config);
  std::fputs(
      harness::render_breakdown_figure(
          sweep,
          "Fig. 5 -- Data movement latency breakdown with the "
          "vendor-provided driver (us)")
          .c_str(),
      stdout);
  std::printf("[%llu packets/point, seed %llu]\n",
              static_cast<unsigned long long>(config.iterations),
              static_cast<unsigned long long>(config.seed));
  return 0;
}
