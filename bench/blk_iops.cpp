// Virtio-blk IOPS/latency sweep: interrupt vs reactor-polled completion.
//
// For each (payload x queue-depth) cell both completion modes run the
// same fixed-depth random read/write workload on the same testbed seed,
// reporting p50/p99/p99.9 request latency and IOPS. Acceptance gates:
//   - at depth >= 8, reactor-polled p50 AND p99 <= the interrupt
//     path's, for every payload (the poller skips IRQ entry and the
//     scheduler wake-up, so it must not be slower at saturation);
//   - IOPS is non-decreasing in queue depth (2% tolerance) for every
//     (mode, payload) — deeper queues amortize per-op host costs;
//   - no completion carried a non-OK status byte.
// Writes BENCH_blk.json ($VFPGA_JSON_DIR honoured): the --stats-only
// document plus `ok`. Exits non-zero on any gate violation or when the
// JSON cannot be written.
//
// The sweep's cells run on the worker pool (run_blk_sweep): bit-identical
// numbers at any worker-thread count, in the canonical payload-major /
// depth / {interrupt, reactor} order printed below.
//
//   --smoke                trimmed sweep for CI
//   --stats-only           print ONLY the deterministic JSON document to
//                          stdout — CI byte-diffs this across
//                          VFPGA_THREADS (no gates, no file)
//   --threads N            worker threads for the sweep's cells
//                          (env > this > hardware; VFPGA_THREADS wins)
//   --seed N               base seed (beats VFPGA_SEED)
//   VFPGA_ITERATIONS=400   measured requests per cell
#include <cstdio>

#include "bench_cli.hpp"
#include "vfpga/harness/blk_bench.hpp"
#include "vfpga/harness/report.hpp"

namespace {

using vfpga::harness::BlkCellResult;
using vfpga::harness::BlkCompletionMode;

const char* mode_name(BlkCompletionMode mode) {
  return mode == BlkCompletionMode::kInterrupt ? "interrupt" : "reactor";
}

/// The deterministic members, byte-identical at any thread count, in an
/// object left open: --stats-only closes it, the file adds `ok` first.
vfpga::harness::Json sweep_json(const vfpga::harness::BlkBenchConfig& config,
                                const vfpga::harness::BlkSweepResult& sweep) {
  vfpga::harness::Json doc;
  doc.begin_object()
      .field("source", "blk_iops")
      .field("seed", config.seed)
      .field("ops_per_cell", config.ops_per_cell)
      .begin_array("cells");
  for (const BlkCellResult& r : sweep.cells) {
    doc.begin_object()
        .field("mode", mode_name(r.mode))
        .field("payload", r.payload)
        .field("queue_depth", r.queue_depth)
        .field("ops", r.ops)
        .field("failures", r.failures)
        .field("iops", r.iops)
        .field("p50_us", r.latency_us.percentile(50))
        .field("p99_us", r.latency_us.percentile(99))
        .field("p999_us", r.latency_us.percentile(99.9))
        .end_object();
  }
  doc.end_array();
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  const bench::Args args = bench::parse_args(
      argc, argv,
      bench::kSmoke | bench::kStatsOnly | bench::kSeed | bench::kThreads);
  harness::BlkBenchConfig config;
  config.ops_per_cell = args.iterations.value_or(config.ops_per_cell);
  config.seed = args.seed.value_or(config.seed);
  config.threads = args.threads;
  if (args.smoke) {
    config.payloads = {512, 65536};
    config.queue_depths = {1, 8};
    config.ops_per_cell = 120;
    config.warmup_ops = 16;
  }

  // One parallel sweep computes every cell; the loops below only
  // read sweep.cells, which run_blk_sweep orders exactly as this bench
  // prints: payload-major, then depth, then {interrupt, reactor}.
  const harness::BlkSweepResult sweep = harness::run_blk_sweep(config);
  harness::Json doc = sweep_json(config, sweep);

  if (args.stats_only) {
    std::fputs(doc.end_object().str().c_str(), stdout);
    bool clean = true;
    for (const BlkCellResult& r : sweep.cells) {
      clean = clean && r.failures == 0;
    }
    return clean ? 0 : 1;
  }

  std::printf(
      "blk_iops: %u requests/cell, seed %llu%s\n\n"
      "%8s %9s %6s | %10s %9s %9s %10s | %10s\n",
      config.ops_per_cell, static_cast<unsigned long long>(config.seed),
      args.smoke ? " (smoke)" : "", "payload", "mode", "depth", "IOPS",
      "p50 us", "p99 us", "p99.9 us", "poll-busy%");

  bool ok = true;
  std::size_t cell_index = 0;
  for (const u32 payload : config.payloads) {
    // iops[mode] per depth, for the monotonicity gate.
    double prev_iops[2] = {0.0, 0.0};
    for (const u16 depth : config.queue_depths) {
      BlkCellResult per_mode[2];
      for (const BlkCompletionMode mode :
           {BlkCompletionMode::kInterrupt, BlkCompletionMode::kReactorPolled}) {
        const std::size_t m = static_cast<std::size_t>(mode);
        BlkCellResult& r = per_mode[m];
        r = sweep.cells[cell_index++];
        if (r.reactor_iterations > 0) {
          std::printf(
              "%8u %9s %6u | %10.0f %9.2f %9.2f %10.2f | %9.1f%%\n", payload,
              mode_name(mode), depth, r.iops, r.latency_us.percentile(50),
              r.latency_us.percentile(99), r.latency_us.percentile(99.9),
              100.0 * static_cast<double>(r.reactor_busy_iterations) /
                  static_cast<double>(r.reactor_iterations));
        } else {
          std::printf("%8u %9s %6u | %10.0f %9.2f %9.2f %10.2f | %10s\n",
                      payload, mode_name(mode), depth, r.iops,
                      r.latency_us.percentile(50), r.latency_us.percentile(99),
                      r.latency_us.percentile(99.9), "-");
        }
        if (r.failures != 0) {
          std::printf("  FAIL: %llu request(s) completed with an error "
                      "status (%s, payload %u, depth %u)\n",
                      static_cast<unsigned long long>(r.failures),
                      mode_name(mode), payload, depth);
          ok = false;
        }
        if (r.iops < prev_iops[m] * 0.98) {
          std::printf("  FAIL: %s IOPS %.0f at depth %u < %.0f at the "
                      "previous depth (payload %u)\n",
                      mode_name(mode), r.iops, depth, prev_iops[m], payload);
          ok = false;
        }
        prev_iops[m] = r.iops;
      }
      const BlkCellResult& irq =
          per_mode[static_cast<std::size_t>(BlkCompletionMode::kInterrupt)];
      const BlkCellResult& polled = per_mode[static_cast<std::size_t>(
          BlkCompletionMode::kReactorPolled)];
      if (depth >= 8) {
        if (polled.latency_us.percentile(50) > irq.latency_us.percentile(50)) {
          std::printf("  FAIL: reactor p50 %.2fus > interrupt p50 %.2fus "
                      "(payload %u, depth %u)\n",
                      polled.latency_us.percentile(50),
                      irq.latency_us.percentile(50), payload, depth);
          ok = false;
        }
        if (polled.latency_us.percentile(99) > irq.latency_us.percentile(99)) {
          std::printf("  FAIL: reactor p99 %.2fus > interrupt p99 %.2fus "
                      "(payload %u, depth %u)\n",
                      polled.latency_us.percentile(99),
                      irq.latency_us.percentile(99), payload, depth);
          ok = false;
        }
      }
    }
    std::printf("\n");
  }

  doc.field("ok", ok).end_object();
  ok = harness::write_bench_json("BENCH_blk.json", doc.str()) && ok;
  return ok ? 0 : 1;
}
