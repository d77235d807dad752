#include "vfpga/harness/migration.hpp"

#include <array>
#include <cstdio>
#include <vector>

#include "vfpga/harness/fault_campaign.hpp"
#include "vfpga/harness/multi_flow.hpp"
#include "vfpga/migrate/snapshot.hpp"

namespace vfpga::harness {

namespace {

/// Everything one op's outcome can differ in between the unmigrated and
/// the migrated host. end_picos folds in every cost-model charge and
/// noise draw of the op, so a single diverged RNG or ring index anywhere
/// shows up here.
struct OpTrace {
  bool ok = false;
  bool recovered = false;
  i64 end_picos = 0;

  bool operator==(const OpTrace&) const = default;
};

/// One UDP echo through the fault campaign's recovery ladder.
OpTrace udp_echo_op(core::VirtioNetTestbed& bed, hostos::UdpSocket& sock,
                    ConstByteSpan payload, const MigrationConfig& config) {
  const EchoOutcome echo = recovering_udp_echo(
      bed, sock, payload, config.max_op_attempts, config.op_time_bound);
  return OpTrace{echo.ok, echo.first_failure.has_value(),
                 bed.thread().now().picos()};
}

/// Copy one set of pages A -> B ("over the migration link").
u64 copy_pages(core::VirtioNetTestbed& src, core::VirtioNetTestbed& dst,
               const std::vector<u64>& pages) {
  std::array<u8, mem::HostMemory::kPageSize> page{};
  for (u64 index : pages) {
    src.memory().read_page(index, page);
    dst.memory().write_page(index, page);
  }
  return pages.size();
}

/// Bytes on the migration link for a page set (index + payload each).
constexpr u64 page_wire_bytes(u64 pages) {
  return pages * (8 + mem::HostMemory::kPageSize);
}

}  // namespace

MigrationResult run_migration(const MigrationConfig& config) {
  MigrationResult result;

  core::TestbedOptions options = config.testbed;
  options.seed = config.seed;
  options.net.max_queue_pairs = config.queue_pairs;
  options.requested_queue_pairs = config.queue_pairs;
  // The PR-1 fault campaign's UDP-recoverable classes, armed for the
  // whole migration: pages keep getting dirtied by retransmissions and
  // watchdog resets while the copy rounds chase them.
  options.fault.seed = config.seed * 7919 + 1;
  options.fault.set_rate(fault::FaultClass::kTlpDrop, config.fault_rate);
  options.fault.set_rate(fault::FaultClass::kNotifyLost, config.fault_rate);
  options.fault.set_rate(fault::FaultClass::kUsedWriteFail,
                         config.fault_rate);

  // Host A carries the workload; host B is the migration target, built
  // from the identical options so its deterministic bring-up lays out
  // rings and pools at the same addresses.
  core::VirtioNetTestbed a{options};
  core::VirtioNetTestbed b{options};

  // Flow f steers to pair f mod P: every pair carries migration traffic.
  auto socks_a = steered_sockets(a, config.flows, 30'000);
  auto socks_b = steered_sockets(b, config.flows, 30'000);

  // Warm every flow once (pools populated, flow affinity pinned) before
  // tracking begins, mirroring a guest that has been running a while.
  for (u16 f = 0; f < config.flows; ++f) {
    const Bytes payload = make_payload(config.payload_bytes, config.seed,
                                       0x8000u + f);
    (void)udp_echo_op(a, *socks_a[f], payload, config);
  }

  a.memory().set_dirty_tracking(true);

  // Round 0: full pass over A's resident pages.
  result.pages_full_copy =
      copy_pages(a, b, a.memory().resident_page_indices());
  (void)a.memory().drain_dirty_pages();  // the full pass covered these

  // Pre-copy rounds: run the faulted workload, then ship what it
  // dirtied.
  const sim::SimTime traffic_start = a.thread().now();
  u32 op_index = 0;
  u64 last_dirty = ~0ull;
  for (u32 round = 0; round < config.max_precopy_rounds; ++round) {
    for (u32 i = 0; i < config.ops_per_round; ++i, ++op_index) {
      const Bytes payload =
          make_payload(config.payload_bytes, config.seed, op_index);
      const OpTrace trace = udp_echo_op(
          a, *socks_a[op_index % config.flows], payload, config);
      ++result.ops_during_precopy;
      if (!trace.ok) {
        ++result.precopy_hangs;
      }
    }
    const std::vector<u64> dirty = a.memory().drain_dirty_pages();
    result.pages_dirty_copied += copy_pages(a, b, dirty);
    ++result.precopy_rounds;
    // Diminishing returns: stop once the writable working set is small
    // or has stopped shrinking — more rounds would only re-copy it.
    if (dirty.size() <= config.dirty_page_goal ||
        dirty.size() >= last_dirty) {
      last_dirty = dirty.size();
      break;
    }
    last_dirty = dirty.size();
  }
  const sim::Duration traffic_elapsed = a.thread().now() - traffic_start;
  if (traffic_elapsed.picos() > 0) {
    result.traffic_rate_pps = static_cast<double>(result.ops_during_precopy) /
                              (traffic_elapsed.micros() / 1e6);
  }

  // Blackout: park A, ship the final dirty set and the (memory-less)
  // state snapshot, resume on B.
  a.quiesce();
  const std::vector<u64> final_dirty = a.memory().drain_dirty_pages();
  result.pages_blackout = copy_pages(a, b, final_dirty);
  const Bytes state_image =
      migrate::save_snapshot(a, /*include_memory=*/false);
  result.state_bytes = state_image.size();
  result.blackout_bytes =
      page_wire_bytes(result.pages_blackout) + result.state_bytes;
  // bytes -> microseconds at copy_gbps: bytes * 8 / (gbps * 1e9) * 1e6.
  result.blackout_us = static_cast<double>(result.blackout_bytes) * 8.0 /
                       (config.copy_gbps * 1000.0);
  result.blackout_bounded = result.blackout_us <= config.max_blackout_us;
  result.modeled_lost_packets =
      result.traffic_rate_pps * result.blackout_us / 1e6;
  result.loss_bound_packets =
      result.traffic_rate_pps * config.max_blackout_us / 1e6;
  result.faults_injected =
      a.fault_plane() ? a.fault_plane()->total_injected() : 0;

  const migrate::RestoreStatus status =
      migrate::restore_snapshot(b, state_image);
  result.restore_ok = status == migrate::RestoreStatus::kOk;
  if (!result.restore_ok) {
    return result;
  }

  // Corruption check 1: a full-memory snapshot of both hosts must be
  // byte-identical right after the switchover.
  a.memory().set_dirty_tracking(false);
  result.snapshot_identical =
      migrate::save_snapshot(a) == migrate::save_snapshot(b);

  // Corruption check 2: replay an identical op sequence on the
  // unmigrated host and the migrated one. Identical state implies
  // bit-identical outcomes — any divergence means the copy missed or
  // mangled something the workload later observed.
  for (u32 i = 0; i < config.post_ops; ++i) {
    const Bytes payload =
        make_payload(config.payload_bytes, config.seed, 0x10000u + i);
    const u16 f = static_cast<u16>(i % config.flows);
    const OpTrace ta = udp_echo_op(a, *socks_a[f], payload, config);
    const OpTrace tb = udp_echo_op(b, *socks_b[f], payload, config);
    ++result.post_ops;
    if (!(ta == tb)) {
      ++result.divergent_ops;
    }
  }

  // Corruption check 3: both hosts arrive at the same place after the
  // replay — every counter, ring index and RNG stream still agrees.
  result.final_snapshot_identical =
      migrate::save_snapshot(a) == migrate::save_snapshot(b);

  // Steady-state proof on the migrated host: disarm the plane, drain
  // stragglers, then every op must complete with no recovery actions.
  if (b.fault_plane()) {
    b.fault_plane()->set_armed(false);
  }
  (void)b.driver().tx_watchdog(b.thread());
  (void)b.stack().poll_rx(b.thread());
  for (auto& sock : socks_b) {
    while (sock->recvfrom_nonblock(b.thread()).has_value()) {
    }
  }
  for (u32 i = 0; i < config.clean_ops; ++i) {
    const Bytes payload =
        make_payload(config.payload_bytes, config.seed, 0x20000u + i);
    const OpTrace trace =
        udp_echo_op(b, *socks_b[i % config.flows], payload, config);
    if (!trace.ok || trace.recovered) {
      ++result.steady_state_failures;
    }
  }

  return result;
}

void print_migration_report(const MigrationConfig& config,
                            const MigrationResult& result) {
  std::printf(
      "migration: %u pair(s), %u flow(s), %llu-byte payloads, seed %llu\n",
      config.queue_pairs, config.flows,
      static_cast<unsigned long long>(config.payload_bytes),
      static_cast<unsigned long long>(config.seed));
  std::printf(
      "  pre-copy: %u round(s), %llu full + %llu dirty page(s), "
      "%llu op(s) at %.0f pps, %llu fault(s) injected\n",
      result.precopy_rounds,
      static_cast<unsigned long long>(result.pages_full_copy),
      static_cast<unsigned long long>(result.pages_dirty_copied),
      static_cast<unsigned long long>(result.ops_during_precopy),
      result.traffic_rate_pps,
      static_cast<unsigned long long>(result.faults_injected));
  std::printf(
      "  blackout: %llu page(s) + %llu state bytes = %llu bytes, "
      "%.1f us at %.0f Gbps (budget %.1f us) -> %s\n",
      static_cast<unsigned long long>(result.pages_blackout),
      static_cast<unsigned long long>(result.state_bytes),
      static_cast<unsigned long long>(result.blackout_bytes),
      result.blackout_us, config.copy_gbps, config.max_blackout_us,
      result.blackout_bounded ? "bounded" : "EXCEEDED");
  std::printf("  modeled loss: %.2f packet(s) (bound %.2f)\n",
              result.modeled_lost_packets, result.loss_bound_packets);
  std::printf(
      "  verify: restore %s, snapshot %s, replay %llu/%llu identical, "
      "final snapshot %s, steady-state failures %llu\n",
      result.restore_ok ? "ok" : "FAILED",
      result.snapshot_identical ? "identical" : "DIVERGED",
      static_cast<unsigned long long>(result.post_ops -
                                      result.divergent_ops),
      static_cast<unsigned long long>(result.post_ops),
      result.final_snapshot_identical ? "identical" : "DIVERGED",
      static_cast<unsigned long long>(result.steady_state_failures));
  std::printf("migration: %s\n", result.ok() ? "PASS" : "FAIL");
}

}  // namespace vfpga::harness
