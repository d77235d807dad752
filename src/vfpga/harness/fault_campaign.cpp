#include "vfpga/harness/fault_campaign.hpp"

#include <cstdio>

#include "vfpga/common/contract.hpp"

namespace vfpga::harness {

namespace {

bool payload_matches(ConstByteSpan expected, ConstByteSpan got) {
  return expected.size() == got.size() &&
         std::equal(expected.begin(), expected.end(), got.begin());
}

}  // namespace

Bytes make_payload(u64 bytes, u64 run_seed, u32 op) {
  Bytes payload(bytes);
  sim::SplitMix64 gen{run_seed * 1315423911ull + op};
  for (auto& b : payload) {
    b = static_cast<u8>(gen.next());
  }
  return payload;
}

EchoOutcome recovering_udp_echo(core::VirtioNetTestbed& bed,
                                hostos::UdpSocket& sock,
                                ConstByteSpan payload, u32 max_attempts,
                                sim::Duration time_bound) {
  hostos::HostThread& t = bed.thread();
  const sim::SimTime op_start = t.now();
  EchoOutcome outcome;
  const auto fail_detected = [&] {
    if (!outcome.first_failure.has_value()) {
      outcome.first_failure = t.now();
    }
  };

  for (u32 attempt = 0; attempt < max_attempts; ++attempt) {
    if (t.now() - op_start >= time_bound) {
      return outcome;  // liveness bound blown: hang
    }
    if (!sock.sendto(t, bed.fpga_ip(), bed.options().fpga_udp_port,
                     payload)) {
      fail_detected();
      (void)bed.driver().tx_watchdog(t);
      continue;
    }
    // A few receive attempts per transmission: stale echoes from earlier
    // retries are drained and discarded by the payload comparison.
    for (u32 rx_try = 0; rx_try < 4; ++rx_try) {
      const auto reply = sock.recvfrom(t);
      if (reply.has_value() && payload_matches(payload, reply->payload)) {
        outcome.ok = true;
        return outcome;
      }
      fail_detected();  // timeout, or a detected-corrupt/stale echo
      // Recovery ladder: reclaim/kick/reset through the TX watchdog and
      // pick up completions whose notify was lost.
      const auto action = bed.driver().tx_watchdog(t);
      if (bed.stack().poll_rx(t) > 0) {
        continue;  // harvested something without an interrupt: re-check
      }
      if (action == hostos::VirtioNetDriver::WatchdogAction::kReset) {
        break;  // in-flight chains are gone; retransmit
      }
    }
  }
  return outcome;
}

namespace {

/// Outcome of one operation driven through the recovery machinery.
struct OpOutcome {
  bool ok = false;
  bool recovered = false;  ///< at least one failed attempt preceded success
  sim::Duration recovery{};
};

/// The campaign's UDP op: recovery latency runs from the first detected
/// failure to the accepted echo.
OpOutcome udp_echo_op(core::VirtioNetTestbed& bed, hostos::UdpSocket& sock,
                      ConstByteSpan payload, const CampaignConfig& config) {
  const EchoOutcome echo = recovering_udp_echo(
      bed, sock, payload, config.max_op_attempts, config.op_time_bound);
  OpOutcome outcome;
  outcome.ok = echo.ok;
  if (echo.ok && echo.first_failure.has_value()) {
    outcome.recovered = true;
    outcome.recovery = bed.thread().now() - *echo.first_failure;
  }
  return outcome;
}

/// One chardev write+read round trip. XdmaHostDriver::run_channel does
/// its own halt-clearing retries; op-level retries cover detected
/// payload mismatches (poisoned DMA).
OpOutcome chardev_op(core::XdmaTestbed& bed, const CampaignConfig& config,
                     u64* injected_before) {
  hostos::HostThread& t = bed.thread();
  const sim::SimTime op_start = t.now();
  OpOutcome outcome;
  for (u32 attempt = 0; attempt < config.max_op_attempts; ++attempt) {
    if (t.now() - op_start >= config.op_time_bound) {
      return outcome;
    }
    const auto rt = bed.write_read_round_trip(config.xdma_bytes);
    if (rt.ok) {
      outcome.ok = true;
      const u64 injected_now =
          bed.fault_plane() ? bed.fault_plane()->total_injected() : 0;
      if (attempt > 0 || injected_now != *injected_before) {
        // The fault hit inside the driver's own retry loop (or forced a
        // whole-op retry): report the op duration as the recovery
        // latency — detection happens inside the blocking transfer.
        outcome.recovered = true;
        outcome.recovery = t.now() - op_start;
      }
      *injected_before = injected_now;
      return outcome;
    }
  }
  return outcome;
}

/// One UDP echo workload of the campaign: its name and TX path.
struct UdpWorkload {
  const char* name;
  hostos::VirtioNetDriver::TxPath tx_path;
};

constexpr UdpWorkload kUdpEcho{"udp-echo",
                               hostos::VirtioNetDriver::TxPath::kBounceCopy};
/// Puts indirect tables on the hot path so kIndirectCorrupt has
/// opportunities to fire (the default TX path never posts one).
constexpr UdpWorkload kUdpIndirect{
    "udp-indir", hostos::VirtioNetDriver::TxPath::kScatterGatherIndirect};

ClassReport run_udp_class(fault::FaultClass cls, const CampaignConfig& config,
                          const UdpWorkload& workload) {
  ClassReport report;
  report.cls = cls;
  report.workload = workload.name;
  for (u64 run = 0; run < config.runs_per_class; ++run) {
    core::TestbedOptions options;
    options.seed = config.base_seed + run;
    options.fault.seed = config.base_seed * 7919 + run;
    options.fault.set_rate(cls, config.fault_rate);
    options.datapath.tx_path = workload.tx_path;
    core::VirtioNetTestbed bed{options};
    ++report.runs;
    hostos::UdpSocket& sock = bed.socket();

    for (u32 op = 0; op < config.ops_per_run; ++op) {
      const Bytes payload = make_payload(config.udp_payload_bytes,
                                         options.seed, op);
      const OpOutcome outcome = udp_echo_op(bed, sock, payload, config);
      if (!outcome.ok) {
        ++report.hangs;
        // The run cannot meaningfully continue past a hang.
        break;
      }
      if (outcome.recovered) {
        ++report.recoveries;
        report.recovery_us.add(outcome.recovery);
      }
    }

    // Steady-state proof: disarm the plane, drain any stragglers, then
    // every op must complete without recovery actions.
    bed.fault_plane()->set_armed(false);
    (void)bed.driver().tx_watchdog(bed.thread());
    (void)bed.stack().poll_rx(bed.thread());
    while (sock.recvfrom_nonblock(bed.thread()).has_value()) {
    }
    for (u32 op = 0; op < config.clean_ops; ++op) {
      const Bytes payload = make_payload(config.udp_payload_bytes,
                                         options.seed, 0x1000u + op);
      const OpOutcome outcome = udp_echo_op(bed, sock, payload, config);
      if (!outcome.ok || outcome.recovered) {
        ++report.steady_state_failures;
      }
    }
    report.injected += bed.fault_plane()->injected(cls);
    report.device_resets += bed.driver().device_resets();
  }
  return report;
}

ClassReport run_chardev_class(fault::FaultClass cls,
                              const CampaignConfig& config) {
  ClassReport report;
  report.cls = cls;
  report.workload = "chardev";
  for (u64 run = 0; run < config.runs_per_class; ++run) {
    core::TestbedOptions options;
    options.seed = config.base_seed + run;
    options.fault.seed = config.base_seed * 104729 + run;
    options.fault.set_rate(cls, config.fault_rate);
    core::XdmaTestbed bed{options};
    ++report.runs;

    u64 injected_before = 0;
    for (u32 op = 0; op < config.ops_per_run; ++op) {
      const OpOutcome outcome = chardev_op(bed, config, &injected_before);
      if (!outcome.ok) {
        ++report.hangs;
        break;
      }
      if (outcome.recovered) {
        ++report.recoveries;
        report.recovery_us.add(outcome.recovery);
      }
    }

    bed.fault_plane()->set_armed(false);
    for (u32 op = 0; op < config.clean_ops; ++op) {
      u64 before = bed.fault_plane()->total_injected();
      const OpOutcome outcome = chardev_op(bed, config, &before);
      if (!outcome.ok || outcome.recovered) {
        ++report.steady_state_failures;
      }
    }
    report.injected += bed.fault_plane()->injected(cls);
    report.device_resets += bed.driver().engine_restarts();
  }
  return report;
}

/// One blk write+readback+verify round trip through the blocking sector
/// API. The driver's own recovery (lost-interrupt visibility fallback)
/// is invisible here except through irq_recoveries(); a device-reported
/// IOERR (rejected corrupt header, backing-store timeout) surfaces as a
/// false return and is retried at op level.
OpOutcome blk_io_op(core::VirtioNetTestbed& bed, u64 sector,
                    ConstByteSpan payload, const CampaignConfig& config,
                    u64* corruptions) {
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();
  const sim::SimTime op_start = t.now();
  const u64 recoveries_before = drv.irq_recoveries();
  OpOutcome outcome;
  bool failed_attempt = false;
  for (u32 attempt = 0; attempt < config.max_op_attempts; ++attempt) {
    if (t.now() - op_start >= config.op_time_bound) {
      return outcome;  // liveness bound blown: hang
    }
    if (!drv.write_sectors(t, sector, payload)) {
      failed_attempt = true;
      continue;
    }
    Bytes readback(payload.size());
    if (!drv.read_sectors(t, sector, readback)) {
      failed_attempt = true;
      continue;
    }
    if (!payload_matches(payload, readback)) {
      // Status byte said OK but the data is wrong — the silent
      // corruption the recovery paths must never produce.
      ++*corruptions;
      failed_attempt = true;
      continue;
    }
    outcome.ok = true;
    if (failed_attempt || drv.irq_recoveries() != recoveries_before) {
      outcome.recovered = true;
      outcome.recovery = t.now() - op_start;
    }
    return outcome;
  }
  return outcome;
}

/// The blk storage classes against a write/readback/flush workload on
/// the attached virtio-blk function (interrupt completion path — the
/// one kBlkIrqLost targets).
ClassReport run_blk_class(fault::FaultClass cls, const CampaignConfig& config) {
  ClassReport report;
  report.cls = cls;
  report.workload = "blk-io";
  constexpr u64 kIoBytes = 4 * virtio::blk::kSectorBytes;
  constexpr u64 kIoSectors = kIoBytes / virtio::blk::kSectorBytes;
  for (u64 run = 0; run < config.runs_per_class; ++run) {
    core::TestbedOptions options;
    options.seed = config.base_seed + run;
    options.fault.seed = config.base_seed * 6700417 + run;
    options.fault.set_rate(cls, config.fault_rate);
    options.attach_blk = true;
    options.blk.capacity_sectors = 512;
    // Aggressive backing-store deadline so a timeout-faulted request is
    // detected and retried well inside op_time_bound even when the
    // class fires on several attempts of the same op.
    options.blk.backing_timeout_cycles = 250'000;
    core::VirtioNetTestbed bed{options};
    ++report.runs;

    const auto one_op = [&](u32 op) {
      const Bytes payload = make_payload(kIoBytes, options.seed, op);
      const u64 sector =
          (u64{op} * 37) % (options.blk.capacity_sectors - kIoSectors);
      return blk_io_op(bed, sector, payload, config, &report.corruptions);
    };

    for (u32 op = 0; op < config.ops_per_run; ++op) {
      const OpOutcome outcome = one_op(op);
      if (!outcome.ok) {
        ++report.hangs;
        break;
      }
      if (outcome.recovered) {
        ++report.recoveries;
        report.recovery_us.add(outcome.recovery);
      }
      // Periodic write barrier so the flush path is under fire too. A
      // faulted FLUSH reports IOERR and is simply retried.
      if (op % 4 == 3) {
        bool flushed = false;
        for (u32 a = 0; a < config.max_op_attempts && !flushed; ++a) {
          flushed = bed.blk_driver().flush(bed.thread());
        }
        if (!flushed) {
          ++report.hangs;
          break;
        }
      }
    }

    bed.fault_plane()->set_armed(false);
    for (u32 op = 0; op < config.clean_ops; ++op) {
      const OpOutcome outcome = one_op(0x1000u + op);
      if (!outcome.ok || outcome.recovered) {
        ++report.steady_state_failures;
      }
    }
    report.injected += bed.fault_plane()->injected(cls);
  }
  return report;
}

}  // namespace

bool CampaignResult::ok() const {
  for (const ClassReport& report : classes) {
    if (!report.ok()) {
      return false;
    }
  }
  return !classes.empty();
}

CampaignResult run_fault_campaign(const CampaignConfig& config) {
  using fault::FaultClass;
  CampaignResult result;
  // Every fault class the VirtIO datapath can observe, against the
  // UDP-echo workload.
  for (const FaultClass cls :
       {FaultClass::kTlpDrop, FaultClass::kTlpCorrupt, FaultClass::kDmaPoison,
        FaultClass::kDescCorrupt, FaultClass::kUsedWriteFail,
        FaultClass::kNotifyLost, FaultClass::kNotifyDup}) {
    result.classes.push_back(run_udp_class(cls, config, kUdpEcho));
  }
  // Indirect-table corruption against the UDP workload with the
  // scatter-gather-indirect TX path negotiated (otherwise no indirect
  // table is ever fetched and the class would trivially pass).
  result.classes.push_back(
      run_udp_class(FaultClass::kIndirectCorrupt, config, kUdpIndirect));
  // A queue's MSI-X message lost at the device; the interrupt-less poll
  // picks up the completion.
  result.classes.push_back(
      run_udp_class(FaultClass::kQueueIrqLost, config, kUdpEcho));
  // The DMA/engine classes against the character-device workload.
  for (const FaultClass cls : {FaultClass::kEngineHalt,
                               FaultClass::kNotifyLost,
                               FaultClass::kDmaPoison}) {
    result.classes.push_back(run_chardev_class(cls, config));
  }
  // The storage classes against the virtio-blk write/readback workload.
  for (const FaultClass cls :
       {FaultClass::kBlkHeaderCorrupt, FaultClass::kBlkIrqLost,
        FaultClass::kBlkBackingTimeout}) {
    result.classes.push_back(run_blk_class(cls, config));
  }
  return result;
}

void print_campaign_report(const CampaignResult& result) {
  std::printf(
      "%-18s %-9s %6s %9s %6s %8s %7s %7s %12s %12s\n", "fault-class",
      "workload", "runs", "injected", "hangs", "corrupt", "resets", "recov",
      "rec-p50(us)", "rec-p99(us)");
  for (const ClassReport& r : result.classes) {
    const bool has_samples = !r.recovery_us.empty();
    std::printf("%-18s %-9s %6llu %9llu %6llu %8llu %7llu %7llu ",
                fault::fault_class_name(r.cls), r.workload.c_str(),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.hangs),
                static_cast<unsigned long long>(r.corruptions),
                static_cast<unsigned long long>(r.device_resets),
                static_cast<unsigned long long>(r.recoveries));
    if (has_samples) {
      std::printf("%12.2f %12.2f\n", r.recovery_us.percentile(50.0),
                  r.recovery_us.percentile(99.0));
    } else {
      std::printf("%12s %12s\n", "-", "-");
    }
    if (r.steady_state_failures != 0) {
      std::printf("  !! %llu steady-state failure(s) after disarm\n",
                  static_cast<unsigned long long>(r.steady_state_failures));
    }
  }
  std::printf("campaign: %s\n", result.ok() ? "PASS" : "FAIL");
}

}  // namespace vfpga::harness
