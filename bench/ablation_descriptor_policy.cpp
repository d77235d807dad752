// ABL-DESC: descriptor-exchange policy ablation (§IV-A).
//
// The paper contrasts per-transfer descriptor programming (XDMA) with
// VirtIO's share-rings-once design, and sketches intermediate points
// ("using the same descriptor table for all transactions and sharing
// the table address only at device initialization reduces overhead").
// This bench measures the hardware-time consequences of the controller's
// descriptor-handling choices:
//   - conservative: one DMA read per ring structure touched (default);
//   - batched chain fetch: adjacent descriptors fetched in one burst;
//   - trusted credits: consume RX buffers against a cached avail-idx
//     snapshot instead of re-polling per response;
//   - all optimizations combined;
// against the XDMA engine's per-transfer descriptor fetch as reference.
#include <cstdio>

#include "experiments.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

namespace {

using namespace vfpga;

constexpr u64 kPayload = 256;

void report(const char* name, const harness::CellResult& cell) {
  std::printf("%-28s hw %6.2f us   total mean %6.2f us   p95 %6.2f us\n",
              name, cell.hardware_us.mean(), cell.total_us.mean(),
              cell.total_us.percentile(95));
}

void run_virtio(const char* name, core::ControllerPolicy policy, u64 n,
                u64 seed) {
  harness::ExperimentConfig config = bench::cell_config(n);
  config.testbed.controller.policy = policy;
  report(name, harness::run_virtio_cell(config, kPayload, seed));
}

}  // namespace

int vfpga::bench::ablation_descriptor_policy(const Args& args) {
  const u64 seed = args.seed.value_or(21);
  const u64 n = args.iterations.value_or(20'000);
  std::printf("ABL-DESC -- descriptor policy ablation, %llu round trips, "
              "%llu-byte payload\n\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(kPayload));

  core::ControllerPolicy conservative;
  run_virtio("virtio conservative", conservative, n, seed);

  core::ControllerPolicy batched = conservative;
  batched.batched_chain_fetch = true;
  run_virtio("virtio batched-fetch", batched, n, seed);

  core::ControllerPolicy trusting = conservative;
  trusting.trust_cached_credits = true;
  run_virtio("virtio trusted-credits", trusting, n, seed);

  core::ControllerPolicy all = batched;
  all.trust_cached_credits = true;
  run_virtio("virtio all optimizations", all, n, seed);

  report("xdma per-transfer descs",
         harness::run_xdma_cell(bench::cell_config(n), kPayload, seed + 1));

  std::puts(
      "\nReading: every avoided descriptor/ring DMA read removes a full\n"
      "non-posted PCIe round trip (~1.5 us on this link) from the\n"
      "hardware share — the mechanism behind SIV-A's overhead argument.");
  return 0;
}
