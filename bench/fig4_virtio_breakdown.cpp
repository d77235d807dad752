// FIG4: Breakdown of data movement latency using the VirtIO driver
// (paper Fig. 4): hardware time from the FPGA performance counters vs
// software-stack time (total minus hardware minus response generation),
// mean +- standard deviation per payload.
#include <cstdio>

#include "bench_cli.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/virtio_bench.hpp"

int main(int argc, char** argv) {
  using namespace vfpga;
  const harness::ExperimentConfig config =
      bench::paper_config(bench::parse_args(argc, argv, 0));
  const harness::SweepResult sweep = harness::run_virtio_sweep(config);
  std::fputs(
      harness::render_breakdown_figure(
          sweep,
          "Fig. 4 -- Breakdown of data movement latency using the VirtIO "
          "driver (us)")
          .c_str(),
      stdout);
  std::printf("[%llu packets/point, seed %llu]\n",
              static_cast<unsigned long long>(config.iterations),
              static_cast<unsigned long long>(config.seed));
  return 0;
}
