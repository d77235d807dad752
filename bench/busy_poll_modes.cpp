// Busy-poll datapath sweep: interrupt vs pure-poll vs adaptive RX.
//
// For each (payload x flows) cell the three receive modes run the same
// paced UDP echo workload (harness::run_multi_flow, one queue pair per
// flow, trials on the worker pool) on paired seeds, reporting
// p50/p95/p99/p99.9 latency AND CPU residency — the spin-vs-sleep trade:
// poll mode buys its tail-latency win by keeping a core runnable through
// the pacing gaps, which the interrupt and adaptive paths sleep. The
// acceptance gate asserts, for every payload at flows=1:
//   - adaptive p50 and p99 <= the interrupt path's (polling skips the
//     IRQ entry and the scheduler wake-up, so it must not be slower);
//   - pure-poll CPU residency > adaptive (pure poll burns the pacing
//     gaps on-core; adaptive sleeps them).
// A second section measures TX kick coalescing: MSG_MORE bursts against
// EVENT_IDX on split and packed rings, doorbells per frame.
// Exits non-zero on any gate violation.
//
//   --smoke                trimmed sweep for CI
//   --seed N               base seed (beats VFPGA_SEED; default 45073)
//   VFPGA_ITERATIONS=300   measured echoes per flow
#include <cstdio>
#include <vector>

#include "bench_cli.hpp"
#include "vfpga/harness/busy_poll_bench.hpp"
#include "vfpga/harness/multi_flow.hpp"

namespace {

const char* mode_name(vfpga::hostos::RxMode mode) {
  switch (mode) {
    case vfpga::hostos::RxMode::kInterrupt:
      return "interrupt";
    case vfpga::hostos::RxMode::kBusyPoll:
      return "pure-poll";
    case vfpga::hostos::RxMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  const bench::Args args =
      bench::parse_args(argc, argv, bench::kSmoke | bench::kSeed);
  harness::MultiFlowConfig base;
  base.packets_per_flow = args.iterations.value_or(300);
  base.warmup_per_flow = 20;
  base.trials = 3;
  base.pacing_gap = sim::microseconds(25);
  base.poll_budget = sim::microseconds(200);
  base.seed = args.seed.value_or(0xb011);
  base.payload_bytes = 64;  // the kick-coalescing frame size
  std::vector<u64> payloads = {64, 256, 512, 1024};
  std::vector<u16> flow_counts = {1, 4};
  if (args.smoke) {
    payloads = {64, 256, 1024};
    flow_counts = {1};
    base.packets_per_flow = 250;
    base.warmup_per_flow = 8;
  }

  const std::vector<hostos::RxMode> modes = {hostos::RxMode::kInterrupt,
                                             hostos::RxMode::kBusyPoll,
                                             hostos::RxMode::kAdaptive};

  std::printf(
      "busy_poll_modes: %u trials/cell, %llu echoes/flow, %.0fus pacing%s\n\n"
      "%6s %9s %8s | %8s %8s %8s %9s | %9s %6s\n",
      base.trials, static_cast<unsigned long long>(base.packets_per_flow),
      base.pacing_gap.micros(), args.smoke ? " (smoke)" : "", "flows",
      "mode", "payload", "p50 us", "p95 us", "p99 us", "p99.9 us",
      "residency", "spin%");

  bool ok = true;
  for (const u16 flows : flow_counts) {
    for (const u64 payload : payloads) {
      harness::MultiFlowConfig config = base;
      config.queue_pairs = flows;
      config.flows = flows;
      config.payload_bytes = payload;
      // The seed is shared by all three modes of a (payload, flows)
      // cell, so the comparison is paired. Trial t runs on
      // derive_seed(config.seed, t), and derive_seed is linear in its
      // base before the mix: this offset gives trial t the seed
      // derive_seed(base.seed, payload·131 + flows·7 + t), which keeps
      // the sweep's published numbers.
      config.seed =
          base.seed + (payload * 131 + flows * 7) * 0x9e3779b97f4a7c15ull;

      harness::MultiFlowResult cells[3];
      for (std::size_t m = 0; m < modes.size(); ++m) {
        config.rx_mode = modes[m];
        cells[m] = harness::run_multi_flow(config);
        const harness::MultiFlowResult& r = cells[m];
        std::printf(
            "%6u %9s %8llu | %8.2f %8.2f %8.2f %9.2f | %8.1f%% %5.0f%%\n",
            flows, mode_name(modes[m]),
            static_cast<unsigned long long>(payload),
            r.all_latency_us.percentile(50), r.all_latency_us.percentile(95),
            r.all_latency_us.percentile(99),
            r.all_latency_us.percentile(99.9), r.cpu_residency * 100.0,
            r.poll_share * 100.0);
        if (r.failures != 0) {
          std::printf("  FAIL: %llu echoes exhausted the retry budget (%s)\n",
                      static_cast<unsigned long long>(r.failures),
                      mode_name(modes[m]));
          ok = false;
        }
      }

      const harness::MultiFlowResult& irq = cells[0];
      const harness::MultiFlowResult& poll = cells[1];
      const harness::MultiFlowResult& adaptive = cells[2];
      if (flows == 1) {
        if (adaptive.all_latency_us.percentile(50) >
            irq.all_latency_us.percentile(50)) {
          std::printf("  FAIL: adaptive p50 %.2fus > interrupt p50 %.2fus "
                      "(payload %llu)\n",
                      adaptive.all_latency_us.percentile(50),
                      irq.all_latency_us.percentile(50),
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (adaptive.all_latency_us.percentile(99) >
            irq.all_latency_us.percentile(99)) {
          std::printf("  FAIL: adaptive p99 %.2fus > interrupt p99 %.2fus "
                      "(payload %llu)\n",
                      adaptive.all_latency_us.percentile(99),
                      irq.all_latency_us.percentile(99),
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (poll.cpu_residency <= adaptive.cpu_residency) {
          std::printf(
              "  FAIL: pure-poll residency %.1f%% <= adaptive %.1f%% "
              "(payload %llu)\n",
              poll.cpu_residency * 100.0, adaptive.cpu_residency * 100.0,
              static_cast<unsigned long long>(payload));
          ok = false;
        }
      }
    }
    std::printf("\n");
  }

  // ---- TX kick coalescing vs EVENT_IDX, split and packed rings ----
  std::printf("%6s %7s | %8s %8s %9s %10s | %12s\n", "ring", "burst",
              "frames", "echoes", "kicks", "coalesced", "kicks/frame");
  for (const bool packed : {false, true}) {
    for (const u32 burst : {1u, 4u, 8u}) {
      const harness::KickCoalescingResult r =
          harness::run_kick_coalescing(base, burst, packed);
      std::printf("%6s %7u | %8llu %8llu %9llu %10llu | %12.3f\n",
                  packed ? "packed" : "split", burst,
                  static_cast<unsigned long long>(r.frames_sent),
                  static_cast<unsigned long long>(r.echoes_received),
                  static_cast<unsigned long long>(r.tx_kicks),
                  static_cast<unsigned long long>(r.tx_kicks_coalesced),
                  r.doorbells_per_frame);
      if (r.echoes_received != r.frames_sent) {
        std::printf("  FAIL: %llu frames sent but %llu echoes received\n",
                    static_cast<unsigned long long>(r.frames_sent),
                    static_cast<unsigned long long>(r.echoes_received));
        ok = false;
      }
      if (r.device_frames != r.frames_sent) {
        std::printf("  FAIL: device processed %llu of %llu frames\n",
                    static_cast<unsigned long long>(r.device_frames),
                    static_cast<unsigned long long>(r.frames_sent));
        ok = false;
      }
      // Coalescing must cut doorbells ~1/burst; EVENT_IDX may suppress
      // further, so the bound is one-sided.
      const double expected = 1.0 / burst;
      if (r.doorbells_per_frame > expected + 1e-9) {
        std::printf("  FAIL: %.3f doorbells/frame, expected <= %.3f\n",
                    r.doorbells_per_frame, expected);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
