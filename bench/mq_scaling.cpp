// Multi-queue scaling sweep: aggregate throughput and per-flow tails.
//
// Sweeps (queue pairs x concurrent flows x payload) with
// harness::run_multi_flow and reports, per cell, the aggregate echo
// throughput plus per-flow latency percentiles (p50/p95/p99 over all
// flows, and the worst single flow's p99). For each (flows, payload)
// row the sweep asserts that aggregate throughput scales monotonically
// with the pair count (within a small tolerance) and that no echo was
// lost or steered to the wrong pair — exits non-zero otherwise.
//
// --stats-only prints only the deterministic per-cell JSON document (no
// gates, no table). The full sweep runs 4 trials per cell of 200 measured
// echoes per flow, seed 2025 (harness::MultiFlowConfig's defaults).
#include <cstdio>
#include <vector>

#include "experiments.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/harness/report.hpp"

namespace {

// Successive pair counts must not lose more than this fraction of
// throughput: flows >= pairs everywhere in the sweep, so adding pairs
// adds device-side parallelism and can only help (modulo trial noise).
constexpr double kMonotonicTolerance = 0.97;

/// One cell's deterministic stats. Everything here is simulated-time
/// derived, so it must match byte for byte at any thread count.
void add_cell(vfpga::harness::Json& doc,
              const vfpga::harness::MultiFlowResult& r) {
  doc.begin_object()
      .field("pairs", r.queue_pairs)
      .field("flows", r.flows)
      .field("payload", r.payload_bytes)
      .field("kpps", r.aggregate_mpps * 1000.0)
      .field("makespan_us", r.mean_makespan_us)
      .field("p50_us", r.all_latency_us.percentile(50))
      .field("p99_us", r.all_latency_us.percentile(99))
      .field("failures", r.failures)
      .field("cross_pair_rx", r.cross_pair_rx)
      .end_object();
}

}  // namespace

int vfpga::bench::mq_scaling(const Args& args) {
  harness::MultiFlowConfig base;
  base.seed = args.seed.value_or(base.seed);
  base.threads = args.threads;
  std::vector<u16> pair_counts = {1, 2, 4, 8};
  std::vector<u16> flow_counts = {8, 16};
  std::vector<u64> payloads = {64, 256, 1024};
  if (args.smoke) {
    pair_counts = {1, 2, 4};
    flow_counts = {8};
    payloads = {256};
    base.trials = 2;
    base.packets_per_flow = 48;
    base.warmup_per_flow = 4;
  }

  // Every cell runs once, in the order both outputs walk: flows, then
  // payload, then pairs.
  std::vector<harness::MultiFlowResult> results;
  for (const u16 flows : flow_counts) {
    for (const u64 payload : payloads) {
      for (const u16 pairs : pair_counts) {
        harness::MultiFlowConfig config = base;
        config.queue_pairs = pairs;
        config.flows = flows;
        config.payload_bytes = payload;
        results.push_back(harness::run_multi_flow(config));
      }
    }
  }

  if (args.stats_only) {
    harness::Json doc;
    doc.begin_object()
        .field("source", "mq_scaling")
        .field("seed", base.seed)
        .begin_array("cells");
    bool clean = true;
    for (const harness::MultiFlowResult& r : results) {
      add_cell(doc, r);
      clean = clean && r.failures == 0 && r.cross_pair_rx == 0;
    }
    std::fputs(doc.end_array().end_object().str().c_str(), stdout);
    return clean ? 0 : 1;
  }

  std::printf(
      "mq_scaling: %u trials/cell, %llu packets/flow%s\n\n"
      "%5s %6s %8s | %10s %10s | %8s %8s %8s %9s %12s\n",
      base.trials,
      static_cast<unsigned long long>(base.packets_per_flow),
      args.smoke ? " (smoke)" : "", "pairs", "flows", "payload", "aggr kpps",
      "makespan", "p50 us", "p95 us", "p99 us", "p99.9 us", "worst-p99 us");

  bool ok = true;
  std::size_t cell_index = 0;
  for (const u16 flows : flow_counts) {
    for (const u64 payload : payloads) {
      double prev_kpps = 0;
      u16 prev_pairs = 0;
      for (const u16 pairs : pair_counts) {
        const harness::MultiFlowResult& r = results[cell_index++];

        double worst_p99 = 0;
        for (const harness::FlowResult& flow : r.per_flow) {
          if (!flow.latency_us.empty()) {
            worst_p99 = std::max(worst_p99, flow.latency_us.percentile(99));
          }
        }
        const double kpps = r.aggregate_mpps * 1000.0;
        std::printf(
            "%5u %6u %8llu | %10.1f %8.0fus | %8.2f %8.2f %8.2f %9.2f "
            "%12.2f\n",
            pairs, flows, static_cast<unsigned long long>(payload), kpps,
            r.mean_makespan_us, r.all_latency_us.percentile(50),
            r.all_latency_us.percentile(95), r.all_latency_us.percentile(99),
            r.all_latency_us.percentile(99.9), worst_p99);

        if (r.failures != 0) {
          std::printf("  FAIL: %llu echoes exhausted the retry budget\n",
                      static_cast<unsigned long long>(r.failures));
          ok = false;
        }
        if (r.cross_pair_rx != 0) {
          std::printf("  FAIL: %llu echoes arrived on the wrong pair\n",
                      static_cast<unsigned long long>(r.cross_pair_rx));
          ok = false;
        }
        if (prev_pairs != 0 && kpps < prev_kpps * kMonotonicTolerance) {
          std::printf(
              "  FAIL: throughput regressed %u -> %u pairs "
              "(%.1f -> %.1f kpps)\n",
              prev_pairs, pairs, prev_kpps, kpps);
          ok = false;
        }
        prev_kpps = kpps;
        prev_pairs = pairs;
      }
      std::printf("\n");
    }
  }
  return ok ? 0 : 1;
}
