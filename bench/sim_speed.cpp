// Simulation-core self-benchmark: lane-sharded speedup + determinism.
//
// Runs the FlowGen traffic workload on the sharded LaneSet twice — one
// worker thread (the oracle) and the full worker pool — and gates:
//   - determinism: every statistic except wall-clock is bit-identical
//     between the two runs (the conservative-window invariant at work);
//   - sanity: no echo failed, no cross-lane ring dropped a message,
//     every routed notification was delivered and executed;
//   - speedup: with >= 8 hardware threads, the parallel run must
//     simulate >= 3x the packets per wall-second of the sequential run
//     on the 10k-flow workload. On smaller hosts the ratio is printed
//     but informational — one core cannot exhibit parallelism.
// Writes BENCH_sim_speed.json ($VFPGA_JSON_DIR honoured): the
// --stats-only document plus the wall-clock fields and `ok`. Exits
// non-zero on any gate violation or failed write.
//
// --stats-only prints only the deterministic stats JSON (no file, no
// wall-clock fields; gate failures go to stderr), from one run at the
// resolved thread count.
#include <cstdio>
#include <thread>

#include "experiments.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/sim_speed.hpp"

namespace {

using vfpga::harness::Json;
using vfpga::harness::SimSpeedConfig;
using vfpga::harness::SimSpeedResult;

/// The deterministic stats, byte-identical across thread counts, in an
/// object left open: --stats-only closes it, the file adds wall-clock
/// fields and `ok` first.
Json stats_json(const SimSpeedConfig& config, const SimSpeedResult& r) {
  Json doc;
  doc.begin_object()
      .field("source", "sim_speed")
      .field("seed", config.seed)
      .field("lanes", r.lanes)
      .field("flows_per_lane", config.flows_per_lane)
      .field("packets", r.packets)
      .field("events", r.events)
      .field("windows", r.windows)
      .field("barriers", r.barriers)
      .field("cross_lane_messages", r.cross_lane_messages)
      .field("cross_lane_received", r.cross_lane_received)
      .field("dropped_messages", r.dropped_messages)
      .field("failures", r.failures)
      .field("flows_created", r.flows_created)
      .field("flows_completed", r.flows_completed)
      .field("flows_abandoned", r.flows_abandoned)
      .field("arena_nodes", r.arena_nodes)
      .field("smallfn_heap_fallbacks", r.smallfn_heap_fallbacks)
      .field("sim_makespan_us", r.sim_makespan_us)
      .field("samples", r.sample_count)
      .begin_object("latency_us")
      .field("mean", r.latency.mean_us)
      .field("stddev", r.latency.stddev_us)
      .field("p50", r.latency.median_us)
      .field("p95", r.latency.p95_us)
      .field("p99", r.latency.p99_us)
      .field("p999", r.latency.p999_us)
      .field("max", r.latency.max_us)
      .end_object()
      .begin_array("residency");
  for (const auto& lane : r.residency) {
    doc.begin_object()
        .field("busy", lane.busy_windows)
        .field("idle", lane.idle_windows)
        .field("barrier_waits", lane.barrier_waits)
        .end_object();
  }
  doc.end_array();
  return doc;
}

}  // namespace

int vfpga::bench::sim_speed(const Args& args) {
  SimSpeedConfig config;
  config.seed = args.seed.value_or(config.seed);
  if (args.smoke) {
    config.lanes = 4;
    config.flows_per_lane = 64;
    config.packets_per_lane = 200;
    config.size_max_packets = 64;
  }
  // env > CLI > hardware; the harness takes a nonzero count as given.
  config.threads = harness::worker_threads(config.lanes, args.threads);

  if (args.stats_only) {
    // Its golden pins the output at any VFPGA_THREADS.
    const SimSpeedResult r = harness::run_sim_speed(config);
    std::fputs(stats_json(config, r).end_object().str().c_str(), stdout);
    return r.failures == 0 && r.dropped_messages == 0 ? 0 : 1;
  }

  std::printf("sim_speed: %u lanes x %u flows, %llu packets/lane%s\n",
              config.lanes, config.flows_per_lane,
              static_cast<unsigned long long>(config.packets_per_lane),
              args.smoke ? " (smoke)" : "");

  SimSpeedConfig seq_config = config;
  seq_config.threads = 1;
  const SimSpeedResult seq = harness::run_sim_speed(seq_config);
  const SimSpeedResult par = harness::run_sim_speed(config);

  const double speedup =
      seq.packets_per_wall_second > 0
          ? par.packets_per_wall_second / seq.packets_per_wall_second
          : 0;
  std::printf(
      "  threads=1: %8.0f pkt/s (wall %.2fs)\n"
      "  threads=%u: %8.0f pkt/s (wall %.2fs)  speedup %.2fx\n"
      "  packets %llu  events %llu  windows %llu over %llu barriers  "
      "msgs %llu  p99 %.2f us\n",
      seq.packets_per_wall_second, seq.wall_seconds, par.threads_used,
      par.packets_per_wall_second, par.wall_seconds, speedup,
      static_cast<unsigned long long>(seq.packets),
      static_cast<unsigned long long>(seq.events),
      static_cast<unsigned long long>(seq.windows),
      static_cast<unsigned long long>(seq.barriers),
      static_cast<unsigned long long>(seq.cross_lane_messages),
      seq.latency.p99_us);

  Json doc = stats_json(config, seq);
  const bool deterministic = doc.str() == stats_json(config, par).str();
  bool ok = deterministic;
  if (!deterministic) {
    std::printf("  FAIL: stats differ between 1 and %u threads\n",
                par.threads_used);
  }
  for (const SimSpeedResult* r : {&seq, &par}) {
    if (r->failures != 0) {
      std::printf("  FAIL: %llu echoes exhausted the retry budget\n",
                  static_cast<unsigned long long>(r->failures));
      ok = false;
    }
    if (r->dropped_messages != 0) {
      std::printf("  FAIL: %llu cross-lane messages dropped\n",
                  static_cast<unsigned long long>(r->dropped_messages));
      ok = false;
    }
    if (r->cross_lane_messages == 0 ||
        r->cross_lane_received != r->cross_lane_messages) {
      std::printf("  FAIL: cross-lane delivery %llu routed, %llu ran\n",
                  static_cast<unsigned long long>(r->cross_lane_messages),
                  static_cast<unsigned long long>(r->cross_lane_received));
      ok = false;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (!args.smoke && hw >= 8 && par.threads_used >= 8 && speedup < 3.0) {
    std::printf("  FAIL: speedup %.2fx < 3.0x at %u threads (%u hw)\n",
                speedup, par.threads_used, hw);
    ok = false;
  } else if (hw < 8) {
    std::printf("  note: %u hardware threads — speedup informational\n", hw);
  }

  doc.field("threads", par.threads_used)
      .field("pps_sequential", seq.packets_per_wall_second)
      .field("pps_parallel", par.packets_per_wall_second)
      .field("speedup", speedup)
      .field("wall_seq_s", seq.wall_seconds)
      .field("wall_par_s", par.wall_seconds)
      .field("deterministic", deterministic)
      .field("ok", ok)
      .end_object();
  ok = harness::write_bench_json("BENCH_sim_speed.json", doc.str()) && ok;
  return ok ? 0 : 1;
}
