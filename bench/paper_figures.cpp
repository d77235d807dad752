// The paper's evaluation: one payload sweep, 64 B..1 KB at 50,000
// packets a point (VFPGA_ITERATIONS to override), on the VirtIO and the
// XDMA testbed, rendered as Figs. 3-5 and Table I.
#include <cstdio>
#include <string>

#include "experiments.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

namespace vfpga::bench {

namespace {

using harness::ExperimentConfig;
using harness::SweepResult;

/// fig3 and table1: both sweeps `render`ed, the footer, BENCH_latency.json
/// tagged `source` ($VFPGA_JSON_DIR honoured), then `trailer`. Exits 1 if
/// the JSON cannot be written.
int latency(const Args& args,
            std::string (*render)(const SweepResult&, const SweepResult&),
            const char* source, const char* trailer) {
  const ExperimentConfig config = paper_config(args);
  const SweepResult virtio = harness::run_virtio_sweep(config);
  const SweepResult xdma = harness::run_xdma_sweep(config);
  std::fputs(render(virtio, xdma).c_str(), stdout);
  std::fputs(harness::render_footer(config, virtio, xdma).c_str(), stdout);
  const bool written =
      harness::write_latency_json(config, virtio, xdma, source);
  std::fputs(trailer, stdout);
  return written ? 0 : 1;
}

/// fig4 and fig5: one driver's hardware-vs-software breakdown, mean +-
/// standard deviation per payload.
int breakdown(const Args& args, SweepResult (*sweep)(const ExperimentConfig&),
              const char* title) {
  const ExperimentConfig config = paper_config(args);
  std::fputs(harness::render_breakdown_figure(sweep(config), title).c_str(),
             stdout);
  std::printf("[%llu packets/point, seed %llu]\n",
              static_cast<unsigned long long>(config.iterations),
              static_cast<unsigned long long>(config.seed));
  return 0;
}

}  // namespace

// FIG3: round-trip latency with VirtIO and vendor-provided device
// drivers: the distribution summary plus ASCII histograms.
int fig3(const Args& args) {
  return latency(args,
                 [](const SweepResult& virtio, const SweepResult& xdma) {
                   return harness::render_fig3(virtio, xdma,
                                               /*with_histograms=*/true);
                 },
                 "fig3_roundtrip_latency", "");
}

// FIG4: breakdown of data movement latency using the VirtIO driver:
// hardware time from the FPGA performance counters vs software-stack
// time (total minus hardware minus response generation).
int fig4(const Args& args) {
  return breakdown(args, harness::run_virtio_sweep,
                   "Fig. 4 -- Breakdown of data movement latency using the "
                   "VirtIO driver (us)");
}

// FIG5: data movement latency breakdown with the vendor-provided driver.
// Note the paper's observation: with XDMA the software time exceeds the
// hardware time — the reverse of the VirtIO breakdown.
int fig5(const Args& args) {
  return breakdown(args, harness::run_xdma_sweep,
                   "Fig. 5 -- Data movement latency breakdown with the "
                   "vendor-provided driver (us)");
}

// TAB1: tail latencies for data movement with VirtIO and XDMA: p95 /
// p99 / p99.9 per payload for both drivers, then the paper's values.
int table1(const Args& args) {
  return latency(
      args, harness::render_table1, "table1_tail_latency",
      "\nPaper Table I (Alinx AX7A200 testbed) for shape comparison:\n"
      "  64B:   95% 35.1/51.3  99% 44.8/70.1  99.9% 66.5/85.8 (V/X)\n"
      "  1024B: 95% 57.8/72.8  99% 65.9/76.7  99.9% 99.6/97.3 (V/X)\n");
}

}  // namespace vfpga::bench
