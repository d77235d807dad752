// perfbench: the end-to-end benchmark of the vfpga simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Runs one workload (virtio-echo, xdma-echo, blk-polled, lane-fleet) in
// segments for S seconds of host wall time and prints, as the last line
// of stdout, one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 an untraced run of S/2 seconds is followed
// by a traced run of S/2 seconds; the metrics are the per-layer ones,
// and the spans of the first traced ops are written to PATH as Chrome
// trace JSON. Either way the run fails (exit 1, "correct": false) when an op
// fails its check or a deterministic output differs between segments,
// between the untraced and traced runs, or (lane-fleet, traced) between
// N workers and 1.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  u64 segment_ops;  ///< timed ops per segment (fleet: packets per lane)
  u32 setup_reps;   ///< set-up-only repetitions before the timed segments
};

constexpr WorkloadSpec kWorkloads[] = {
    {"virtio-echo", 40'000, 15},
    {"xdma-echo", 40'000, 15},
    {"blk-polled", 10'000, 15},
    {"lane-fleet", 20'000, 15},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_wall_s", "1/s"},
    {"cpu_us_per_op", "us"},    {"peak_rss_mib", "MiB"},
    {"sim_p50_us", "us"},       {"sim_p99_us", "us"},
    {"sim_p999_us", "us"},      {"sim_ops_per_sim_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.setup_ms", "ms"},
    {"hostos.sendto_us", "us"},
    {"hostos.recvfrom_us", "us"},
    {"hostos.sendto_allocs", "count"},
    {"hostos.recvfrom_allocs", "count"},
    {"fpga.counter_read_us", "us"},
    {"fpga.counter_history", "count"},
    {"mem.resident_mib", "MiB"},
    {"hostos.xdma_write_us", "us"},
    {"hostos.xdma_read_us", "us"},
    {"hostos.xdma_allocs", "count"},
    {"hostos.blk_submit_us", "us"},
    {"hostos.blk_harvest_us", "us"},
    {"hostos.blk_pop_us", "us"},
    {"reactor.poll_self_us", "us"},
    {"reactor.iterations_per_op", "count"},
    {"reactor.busy_share", "ratio"},
    {"harness.fleet_run_s", "s"},
    {"sim.lanes.threads_used", "count"},
    {"sim.lanes.windows", "count"},
    {"sim.lanes.barriers", "count"},
    {"sim.lanes.barrier_waits", "count"},
    {"sim.lanes.busy_share", "ratio"},
    {"sim.lanes.parallel_speedup", "ratio"},
    {"sim.events_per_op", "count"},
    {"sim.arena_nodes", "count"},
    {"sim.smallfn_heap_fallbacks", "count"},
    {"reactor.ring_messages", "count"},
    {"reactor.ring_dropped", "count"},
    {"net.flowgen.flows_created", "count"},
    {"hostos.sim_software_us", "us"},
    {"hostos.sim_poll_us", "us"},
    {"hostos.sim_mmio_stall_us", "us"},
    {"hostos.sim_blocked_us", "us"},
    {"core.sim_hw_us", "us"},
    {"core.sim_user_logic_us", "us"},
    {"xdma.sim_hw_us", "us"},
    {"hostos.irqs_per_op", "count"},
    {"hostos.tx_kicks_per_op", "count"},
    {"core.frames_per_op", "count"},
    {"hostos.blk_inflight_mean", "count"},
    {"trace.overhead_pct", "%"},
};

constexpr u32 kMinSegments = 3;
constexpr std::size_t kTraceRecords = 60'000;

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out = "perfbench-trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "virtio-echo|xdma-echo|blk-polled|lane-fleet --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parse_u64(value, "--trace"));
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds < 1 || (o.trace != 0 && o.trace != 1)) {
    usage("--seconds must be >= 1 and --trace 0 or 1");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Allocations per span id within one segment (traced runs).
using AllocVector = std::vector<u64>;

AllocVector alloc_vector(const Tracer& tracer) {
  AllocVector v;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanId::kCount); ++i) {
    v.push_back(tracer.aggregate(static_cast<SpanId>(i)).allocs);
  }
  return v;
}

struct Phase {
  std::vector<Segment> segments;  ///< timed segments
  std::vector<double> setups;     ///< set-up wall seconds
  std::vector<double> setup_references;  ///< reference loop after each
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> problems;
};

using SegmentFn = std::function<Segment(u64 ops, Tracer&)>;

/// Set-up repetitions, then timed segments until `seconds` have passed.
/// Checks every op, every segment's digest against the first, the
/// worker count, and (traced) the per-segment allocation counts.
Phase run_phase(const WorkloadSpec& spec, const SegmentFn& segment,
                double seconds, unsigned workers, Tracer& tracer) {
  const bool fleet = std::strcmp(spec.name, "lane-fleet") == 0;
  Phase phase;
  const auto account = [&](const Segment& seg) {
    phase.attempted += seg.attempted;
    phase.failed += seg.digest.failed;
    if (fleet && seg.threads_used != workers) {
      phase.problems.push_back("lane-fleet ran on " +
                               std::to_string(seg.threads_used) +
                               " workers, asked for " +
                               std::to_string(workers));
    }
  };
  for (u32 r = 0; r < spec.setup_reps; ++r) {
    const Segment seg = segment(0, tracer);
    phase.setups.push_back(seg.setup_s);
    phase.setup_references.push_back(seg.setup_reference_s);
    account(seg);
  }
  AllocVector first_allocs;
  const double start = wall_now();
  while (phase.segments.size() < kMinSegments ||
         wall_now() - start < seconds) {
    const AllocVector before = alloc_vector(tracer);
    Segment seg = segment(spec.segment_ops, tracer);
    AllocVector allocs = alloc_vector(tracer);
    for (std::size_t i = 0; i < allocs.size(); ++i) {
      allocs[i] -= before[i];
    }
    account(seg);
    if (!fleet) {
      phase.setups.push_back(seg.setup_s);
      phase.setup_references.push_back(seg.setup_reference_s);
    }
    if (phase.segments.empty()) {
      first_allocs = allocs;
    } else {
      if (!(seg.digest == phase.segments.front().digest)) {
        phase.problems.push_back("segment " +
                                 std::to_string(phase.segments.size()) +
                                 " differs from segment 0");
      }
      if (tracer.enabled() && allocs != first_allocs) {
        phase.problems.push_back("allocation counts of segment " +
                                 std::to_string(phase.segments.size()) +
                                 " differ from segment 0");
      }
    }
    phase.segments.push_back(std::move(seg));
  }
  return phase;
}

/// Host-time rates of a phase: medians over every chunk of timed ops,
/// each scaled by the reference loop run right after it (see
/// reference_loop), so neither a burst of co-tenant load nor a slower
/// stretch of minutes moves the result much. `raw` keeps them unscaled.
struct Rates {
  double ops_per_wall_s = 0;
  double cpu_us_per_op = 0;
  double setup_s = 0;
  double segment_wall_s = 0;  ///< median wall time of a whole segment
  double speed = 1;  ///< median reference scale factor of the chunks
};

Rates rates(const Phase& phase, bool raw) {
  std::vector<double> throughput;
  std::vector<double> cpu;
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> speeds;
  for (const Segment& s : phase.segments) {
    double segment_wall = 0;
    for (const Segment::Chunk& c : s.chunks) {
      const double speed = raw ? 1.0 : kReferenceSeconds / c.reference_s;
      speeds.push_back(speed);
      const double ops = static_cast<double>(c.ops);
      throughput.push_back(ops / c.wall_s / speed);
      cpu.push_back(c.cpu_s / ops * 1e6 * speed);
      segment_wall += c.wall_s;
    }
    wall.push_back(segment_wall);
  }
  for (std::size_t i = 0; i < phase.setups.size(); ++i) {
    setup.push_back(phase.setups[i] *
                    (raw ? 1.0 : kReferenceSeconds / phase.setup_references[i]));
  }
  return {median(throughput), median(cpu), median(setup), median(wall),
          median(speeds)};
}

/// Mean self time per call of `id`, in microseconds.
double self_us(const Tracer& t, SpanId id) {
  const Tracer::Aggregate& a = t.aggregate(id);
  return a.calls == 0 ? 0.0
                      : static_cast<double>(a.self_ns) / 1e3 /
                            static_cast<double>(a.calls);
}

double allocs_per_call(const Tracer& t, SpanId id) {
  const Tracer::Aggregate& a = t.aggregate(id);
  return a.calls == 0 ? 0.0
                      : static_cast<double>(a.allocs) /
                            static_cast<double>(a.calls);
}

void print_json(bool correct, u64 attempted, u64 failed,
                const std::map<std::string, double>& values,
                const MetricDef* defs, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, std::isfinite(v) ? v : 0.0,
                defs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  // The workload seed: every testbed, payload draw and flow population
  // derives from it.
  const u64 seed = 0x5eed'0000ull + o.seed;
  const std::string name = spec->name;
  // lane-fleet: 8 lanes on min(4, nproc) workers.
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  SegmentFn segment = [&](u64 ops, Tracer& tracer) -> Segment {
    if (name == "virtio-echo") {
      return run_virtio_echo(seed, ops, tracer);
    }
    if (name == "xdma-echo") {
      return run_xdma_echo(seed, ops, tracer);
    }
    if (name == "blk-polled") {
      return run_blk_polled(seed, ops, tracer);
    }
    return run_lane_fleet(seed, ops, workers, tracer);
  };

  // A traced invocation splits its time between the untraced run (the
  // reference for trace.overhead_pct and the digest check) and the
  // traced run.
  const double phase_seconds = o.trace == 1 ? o.seconds / 2 : o.seconds;
  Tracer untraced;
  const Phase timed =
      run_phase(*spec, segment, phase_seconds, workers, untraced);
  const double rss = peak_rss_mib();
  const Rates timed_rates = rates(timed, false);
  const Rates raw_rates = rates(timed, true);
  const Digest& digest = timed.segments.front().digest;
  std::vector<std::string> problems = timed.problems;
  u64 attempted = timed.attempted;
  u64 failed = timed.failed;

  std::fprintf(stderr,
               "perfbench %s seed %llu: %zu segments of %llu ops, %zu "
               "set-ups, %llu attempted, %llu failed\n",
               spec->name, static_cast<unsigned long long>(o.seed),
               timed.segments.size(),
               static_cast<unsigned long long>(digest.ops),
               timed.setups.size(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  std::fprintf(stderr,
               "  unscaled: %.6g s set-up, %.6g ops/s, %.6g cpu us/op; the "
               "host ran %.3fx slower than the reference\n",
               raw_rates.setup_s, raw_rates.ops_per_wall_s,
               raw_rates.cpu_us_per_op,
               raw_rates.cpu_us_per_op / timed_rates.cpu_us_per_op);

  std::map<std::string, double> values;
  const MetricDef* defs = kEndToEnd;
  std::size_t ndefs = std::size(kEndToEnd);
  if (o.trace == 0) {
    values["setup_s"] = timed_rates.setup_s;
    values["ops_per_wall_s"] = timed_rates.ops_per_wall_s;
    values["cpu_us_per_op"] = timed_rates.cpu_us_per_op;
    values["peak_rss_mib"] = rss;
    values["sim_p50_us"] = digest.p50_us;
    values["sim_p99_us"] = digest.p99_us;
    values["sim_p999_us"] = digest.p999_us;
    values["sim_ops_per_sim_s"] = digest.ops_per_sim_s;
  } else {
    Tracer tracer(kTraceRecords);
    const Phase traced =
        run_phase(*spec, segment, phase_seconds, workers, tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    if (!(traced.segments.front().digest == digest)) {
      problems.emplace_back("traced run differs from untraced run");
    }
    const Rates traced_rates = rates(traced, false);
    const Tracer& t = tracer;
    const double ops = static_cast<double>(
        traced.segments.size() * traced.segments.front().digest.ops);
    // Span times are scaled by the traced run's median reference factor,
    // like the end-to-end host times, so runs on a busier host compare.
    const auto host_us = [&](SpanId id) {
      return self_us(t, id) * traced_rates.speed;
    };
    values["harness.setup_ms"] = host_us(SpanId::kSetup) / 1e3;
    values["hostos.sendto_us"] = host_us(SpanId::kSendto);
    values["hostos.recvfrom_us"] = host_us(SpanId::kRecvfrom);
    values["hostos.sendto_allocs"] = allocs_per_call(t, SpanId::kSendto);
    values["hostos.recvfrom_allocs"] = allocs_per_call(t, SpanId::kRecvfrom);
    values["fpga.counter_read_us"] =
        static_cast<double>(t.aggregate(SpanId::kCounterRead).total_ns) /
        1e3 / ops * traced_rates.speed;
    values["hostos.xdma_write_us"] = host_us(SpanId::kXdmaWrite);
    values["hostos.xdma_read_us"] = host_us(SpanId::kXdmaRead);
    values["hostos.xdma_allocs"] =
        static_cast<double>(t.aggregate(SpanId::kXdmaWrite).allocs +
                            t.aggregate(SpanId::kXdmaRead).allocs) /
        ops;
    values["hostos.blk_submit_us"] = host_us(SpanId::kBlkSubmit);
    values["hostos.blk_harvest_us"] = host_us(SpanId::kBlkHarvest);
    values["hostos.blk_pop_us"] = host_us(SpanId::kBlkPop);
    values["reactor.poll_self_us"] = host_us(SpanId::kReactorPoll);
    values["harness.fleet_run_s"] = host_us(SpanId::kFleetRun) / 1e6;
    for (const auto& [metric, value] : digest.counts) {
      values[metric] = value;
    }
    values["trace.overhead_pct"] =
        (traced_rates.cpu_us_per_op / timed_rates.cpu_us_per_op - 1.0) * 100.0;

    if (name == "lane-fleet") {
      values["sim.lanes.threads_used"] = traced.segments.front().threads_used;
      Tracer off;
      const Segment one = run_lane_fleet(seed, spec->segment_ops, 1, off);
      attempted += one.attempted;
      failed += one.digest.failed;
      if (one.threads_used != 1) {
        problems.emplace_back("1-worker fleet did not run on 1 worker");
      }
      if (!(one.digest == digest)) {
        problems.emplace_back("1-worker fleet differs from " +
                              std::to_string(workers) + "-worker fleet");
      }
      values["sim.lanes.parallel_speedup"] =
          one.chunks.front().wall_s / traced_rates.segment_wall_s;
    }
    if (!tracer.write_chrome_json(o.trace_out)) {
      problems.push_back("cannot write " + o.trace_out);
    }
    defs = kPerLayer;
    ndefs = std::size(kPerLayer);
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", p.c_str());
  }
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = values.find(defs[i].name);
    std::fprintf(stderr, "  %-28s %16.6g %s\n", defs[i].name,
                 it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
  const bool correct = failed == 0 && problems.empty();
  std::fflush(stderr);
  print_json(correct, attempted, failed, values, defs, ndefs);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
