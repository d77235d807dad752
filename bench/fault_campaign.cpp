// Randomized fault-injection campaign runner.
//
// Sweeps every fault class x seed over the UDP-echo and chardev
// workloads with recovery enabled, then prints per-class injection and
// recovery-latency statistics (p50/p99) and writes
// BENCH_fault_campaign.json ($VFPGA_JSON_DIR honoured). Exits non-zero
// when any run hung, silently corrupted a payload, or failed to return
// to steady-state after the plane was disarmed — with a per-class
// breakdown of what failed, so CI logs show which invariant broke
// where instead of a bare exit code — or when the JSON cannot be
// written.
//
//   --seed N                 base seed (beats VFPGA_SEED; default 202408)
//   VFPGA_CAMPAIGN_RUNS=200  seeded runs per (class, workload)
// Each run makes 12 faulted operations at a per-consult injection
// probability of 0.08 (harness::CampaignConfig's defaults).
#include <cstdio>
#include <string>

#include "experiments.hpp"
#include "vfpga/harness/fault_campaign.hpp"
#include "vfpga/harness/report.hpp"

namespace {

std::string campaign_json(const vfpga::harness::CampaignConfig& config,
                          const vfpga::harness::CampaignResult& result) {
  vfpga::harness::Json doc;
  doc.begin_object()
      .field("source", "fault_campaign")
      .field("seed", config.base_seed)
      .field("runs_per_class", config.runs_per_class)
      .field("ops_per_run", config.ops_per_run)
      .field("fault_rate", config.fault_rate)
      .begin_array("classes");
  for (const auto& r : result.classes) {
    doc.begin_object()
        .field("class", vfpga::fault::fault_class_name(r.cls))
        .field("workload", r.workload)
        .field("runs", r.runs)
        .field("injected", r.injected)
        .field("hangs", r.hangs)
        .field("corruptions", r.corruptions)
        .field("device_resets", r.device_resets)
        .field("recoveries", r.recoveries)
        .field("steady_state_failures", r.steady_state_failures)
        .field("ok", r.ok())
        .end_object();
  }
  doc.end_array().field("ok", result.ok()).end_object();
  return doc.str();
}

/// Per-class failure breakdown on the way out: which invariant broke,
/// how often, under which workload.
int report_failures(const vfpga::harness::CampaignResult& result) {
  int failing_classes = 0;
  for (const auto& r : result.classes) {
    if (r.ok()) {
      continue;
    }
    ++failing_classes;
    std::fprintf(stderr,
                 "FAIL %s/%s: %llu hang(s), %llu corruption(s), "
                 "%llu steady-state failure(s) over %llu run(s)\n",
                 vfpga::fault::fault_class_name(r.cls), r.workload.c_str(),
                 static_cast<unsigned long long>(r.hangs),
                 static_cast<unsigned long long>(r.corruptions),
                 static_cast<unsigned long long>(r.steady_state_failures),
                 static_cast<unsigned long long>(r.runs));
  }
  if (failing_classes != 0) {
    std::fprintf(stderr, "fault campaign: %d fault class(es) failed\n",
                 failing_classes);
  }
  return failing_classes;
}

}  // namespace

int vfpga::bench::fault_campaign(const Args& args) {
  harness::CampaignConfig config;
  config.runs_per_class = args.campaign_runs.value_or(config.runs_per_class);
  config.base_seed = args.seed.value_or(config.base_seed);
  std::printf(
      "fault campaign: %llu runs/class, %u ops/run, rate %.3f, seed %llu\n",
      static_cast<unsigned long long>(config.runs_per_class),
      config.ops_per_run, config.fault_rate,
      static_cast<unsigned long long>(config.base_seed));
  const harness::CampaignResult result = harness::run_fault_campaign(config);
  harness::print_campaign_report(result);
  const bool written = harness::write_bench_json(
      "BENCH_fault_campaign.json", campaign_json(config, result));
  return report_failures(result) == 0 && written ? 0 : 1;
}
