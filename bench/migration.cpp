// Live-migration bench: snapshot/restore + two-host pre-copy migration
// under a faulted multi-flow UDP workload.
//
// Runs harness::run_migration for both ring formats (split and packed),
// prints the blackout/loss/verification report, writes
// BENCH_migration.json ($VFPGA_JSON_DIR honoured) and exits non-zero
// when any run corrupted state, diverged after switchover, or blew the
// blackout budget, or when the JSON cannot be written.
//
//   --smoke            trimmed workload for CI (fewer ops and rounds)
//   --seed N           base seed (beats VFPGA_SEED; default 8242026)
#include <cstdio>
#include <vector>

#include "bench_cli.hpp"
#include "vfpga/harness/migration.hpp"
#include "vfpga/harness/report.hpp"

namespace {

void add_run(vfpga::harness::Json& doc, const char* ring,
             const vfpga::harness::MigrationResult& r) {
  doc.begin_object()
      .field("ring", ring)
      .field("precopy_rounds", r.precopy_rounds)
      .field("pages_full", r.pages_full_copy)
      .field("pages_dirty", r.pages_dirty_copied)
      .field("pages_blackout", r.pages_blackout)
      .field("state_bytes", r.state_bytes)
      .field("blackout_us", r.blackout_us)
      .field("rate_pps", r.traffic_rate_pps)
      .field("modeled_lost_packets", r.modeled_lost_packets)
      .field("loss_bound_packets", r.loss_bound_packets)
      .field("ops_precopy", r.ops_during_precopy)
      .field("faults_injected", r.faults_injected)
      .field("post_ops", r.post_ops)
      .field("divergent_ops", r.divergent_ops)
      .field("restore_ok", r.restore_ok)
      .field("snapshot_identical", r.snapshot_identical)
      .field("final_snapshot_identical", r.final_snapshot_identical)
      .field("blackout_bounded", r.blackout_bounded)
      .field("ok", r.ok())
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vfpga;
  const bench::Args args =
      bench::parse_args(argc, argv, bench::kSmoke | bench::kSeed);
  const u64 seed = args.seed.value_or(8'24'2026);

  harness::MigrationConfig base;
  if (args.smoke) {
    base.ops_per_round = 10;
    base.max_precopy_rounds = 4;
    base.post_ops = 16;
    base.clean_ops = 4;
  }

  harness::Json doc;
  doc.begin_object()
      .field("source", "migration")
      .field("seed", seed)
      .begin_array("runs");
  std::vector<const char*> failed;
  for (const bool packed : {false, true}) {
    harness::MigrationConfig config = base;
    config.testbed.use_packed_rings = packed;
    config.seed = seed + (packed ? 1 : 0);
    const char* ring = packed ? "packed" : "split";
    std::printf("=== %s rings ===\n", ring);
    const harness::MigrationResult result = harness::run_migration(config);
    harness::print_migration_report(config, result);
    add_run(doc, ring, result);
    if (!result.ok()) {
      failed.push_back(ring);
    }
  }
  doc.end_array().field("ok", failed.empty()).end_object();
  const bool written = harness::write_bench_json("BENCH_migration.json",
                                                 doc.str());

  for (const char* ring : failed) {
    std::printf("FAIL: %s-ring migration violated an invariant\n", ring);
  }
  return failed.empty() && written ? 0 : 1;
}
