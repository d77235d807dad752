// PORTABILITY: the paper's stated next step (§VI) — "performing the same
// experiments on different FPGA devices (different device families and
// from different vendors) and on different operating systems to
// demonstrate the portability of the proposed approach."
//
// Platform presets vary the PCIe link (generation/width/pipeline
// latencies of different hard blocks) and the host OS cost profile
// (desktop vs. tuned server). The claim to check: the VirtIO-vs-vendor
// ordering is a property of the driver structures, not of one board —
// so it should hold on every platform.
#include <cstdio>

#include "experiments.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"
#include "vfpga/stats/summary.hpp"

namespace {

using namespace vfpga;

struct Platform {
  const char* name;
  pcie::LinkConfig link;
  bool tuned_host;  ///< isolcpus/low-C-state server profile
};

pcie::LinkConfig gen2x2_artix() {
  return pcie::LinkConfig{};  // the paper's board (defaults)
}

pcie::LinkConfig gen3x4_ultrascale() {
  pcie::LinkConfig link;
  // Gen3 x4, 128b/130b: ~3.94 GB/s usable; faster hard block.
  link.bytes_per_ns = 3.94;
  link.endpoint_pipeline = sim::nanoseconds(250);
  link.root_pipeline = sim::nanoseconds(150);
  link.limits.max_payload_size = 256;
  link.limits.max_read_request = 512;
  return link;
}

pcie::LinkConfig gen3x8_agilex() {
  pcie::LinkConfig link;
  link.bytes_per_ns = 7.88;
  link.endpoint_pipeline = sim::nanoseconds(220);
  link.root_pipeline = sim::nanoseconds(140);
  link.limits.max_payload_size = 512;
  link.limits.max_read_request = 1024;
  return link;
}

hostos::CostModelConfig tuned_server_costs() {
  // Pinned cores, C-states limited to C1, threaded IRQs steered away:
  // cheaper wake-ups and less multi-modality; same code paths.
  auto c = hostos::CostModelConfig::fedora_defaults();
  c.wakeup = sim::MixtureSegment{{
      {0.85, {sim::nanoseconds(1100), 0.20, sim::nanoseconds(650), {}}},
      {0.15, {sim::nanoseconds(2600), 0.25, sim::nanoseconds(1300), {}}},
  }};
  return c;
}

sim::NoiseConfig tuned_server_noise() {
  sim::NoiseConfig n;
  n.common_rate_per_us = 0.004;
  n.rare_rate_per_us = 0.00002;
  return n;
}

}  // namespace

int vfpga::bench::portability_sweep(const Args& args) {
  const u64 n = args.iterations.value_or(15'000);
  const u64 payload = 256;
  std::printf("PORTABILITY -- VirtIO vs XDMA across platform presets, "
              "%llu round trips, %llu B payload\n\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(payload));
  std::printf("%-34s %16s %16s %9s\n", "platform",
              "VirtIO mean/p95", "XDMA mean/p95", "ordering");

  const Platform platforms[] = {
      {"artix7-gen2x2 + fedora desktop", gen2x2_artix(), false},
      {"artix7-gen2x2 + tuned server", gen2x2_artix(), true},
      {"ultrascale-gen3x4 + fedora", gen3x4_ultrascale(), false},
      {"agilex-gen3x8 + tuned server", gen3x8_agilex(), true},
  };

  for (const Platform& platform : platforms) {
    harness::ExperimentConfig config = bench::cell_config(n);
    config.testbed.link = platform.link;
    if (platform.tuned_host) {
      config.testbed.costs = tuned_server_costs();
      config.testbed.noise = tuned_server_noise();
    }
    const stats::SampleSet virtio =
        harness::run_virtio_cell(config, payload, 61).total_us;
    const stats::SampleSet xdma =
        harness::run_xdma_cell(config, payload, 61).total_us;
    char virtio_col[32];
    char xdma_col[32];
    std::snprintf(virtio_col, sizeof virtio_col, "%.1f / %.1f",
                  virtio.mean(), virtio.percentile(95));
    std::snprintf(xdma_col, sizeof xdma_col, "%.1f / %.1f", xdma.mean(),
                  xdma.percentile(95));
    const double ratio = virtio.mean() / xdma.mean();
    const char* ordering = ratio <= 0.98   ? "V < X"
                           : ratio < 1.02 ? "V ~= X"
                                          : "V > X";
    std::printf("%-34s %16s %16s %9s\n", platform.name, virtio_col, xdma_col,
                ordering);
  }

  std::puts(
      "\nReading: on every preset VirtIO's p95 stays below XDMA's — the\n"
      "variance advantage is structural and portable. The *mean* ordering\n"
      "narrows to a tie on tuned (low-wakeup-cost) hosts, where XDMA's\n"
      "software penalty shrinks while VirtIO's ring-read hardware cost\n"
      "does not: exactly the paper's SV recommendation that highly\n"
      "optimized deployments may still justify a custom driver.");
  return 0;
}
