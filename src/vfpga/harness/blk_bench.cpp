#include "vfpga/harness/blk_bench.hpp"

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/reactor/reactor.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

namespace {

/// Sector stride between consecutive ops — co-prime with any power-of-
/// two capacity, so the workload sweeps the whole store and the seek
/// cost model sees realistic head movement.
constexpr u64 kSectorStride = 173;

}  // namespace

BlkCellResult run_blk_cell(const BlkBenchConfig& config, BlkCompletionMode mode,
                           u32 payload, u16 queue_depth) {
  VFPGA_EXPECTS(payload % virtio::blk::kSectorBytes == 0);
  VFPGA_EXPECTS(config.warmup_ops > 0);
  BlkCellResult result;
  result.mode = mode;
  result.payload = payload;
  result.queue_depth = queue_depth;

  core::TestbedOptions options;
  // Mode-independent seed: both completion paths run the same bed.
  options.seed = config.seed + u64{payload} * 31 + u64{queue_depth} * 7;
  options.attach_blk = true;
  options.blk.capacity_sectors = config.capacity_sectors;
  options.blk_driver.queue_depth = queue_depth;
  options.blk_driver.max_io_bytes = payload;
  core::VirtioNetTestbed bed{options};
  hostos::HostThread& t = bed.thread();
  hostos::VirtioBlkDriver& drv = bed.blk_driver();

  Bytes write_buf(payload);
  sim::SplitMix64 fill{options.seed ^ 0x1bf52ull};
  for (auto& b : write_buf) {
    b = static_cast<u8>(fill.next());
  }
  const u64 io_sectors = payload / virtio::blk::kSectorBytes;
  const u32 total = config.warmup_ops + config.ops_per_cell;
  u32 submitted = 0;
  u32 completed = 0;

  // Top the queue up to depth with the next ops of the 50/50 write/read
  // stream. Returns whether anything was submitted.
  const auto submit_to_depth = [&] {
    bool any = false;
    while (drv.in_flight(0) < queue_depth && submitted < total) {
      const u64 sector = (u64{submitted} * kSectorStride) %
                         (config.capacity_sectors - io_sectors);
      const std::optional<u32> slot =
          (submitted % 2 == 0) ? drv.submit_write(t, 0, sector, write_buf)
                               : drv.submit_read(t, 0, sector, payload);
      if (!slot.has_value()) {
        break;
      }
      ++submitted;
      any = true;
    }
    return any;
  };
  // Completions pop in used-ring order; the first warmup_ops are the
  // pipeline-fill ramp and stay out of the latency distribution. IOPS
  // is deliberately NOT derived from completed_at stamps: the engine
  // runs ahead of the host, so an interrupt-mode drain clusters a whole
  // depth of completions on one wake timestamp and any stamp-bounded
  // window is off by up to a batch. The cell instead spans the full
  // closed loop on the host clock, where the boundary batches amortize
  // over the op count.
  const auto drain = [&] {
    while (auto c = drv.pop_completion(0)) {
      if (completed++ < config.warmup_ops) {
        continue;
      }
      ++result.ops;
      result.latency_us.add(c->completed_at - c->submitted_at);
      if (c->status != virtio::blk::kStatusOk) {
        ++result.failures;
      }
    }
  };

  const sim::SimTime start = t.now();
  if (mode == BlkCompletionMode::kInterrupt) {
    // The kernel path: fill the depth, sleep on the vector, drain on
    // wake.
    while (completed < total) {
      submit_to_depth();
      VFPGA_ASSERT(drv.in_flight(0) > 0);
      if (!drv.wait_interrupt(t, 0)) {
        break;  // vector torn down: abandon the cell
      }
      drain();
    }
  } else {
    // A submission poller keeps the queue at depth, a completion poller
    // reaps whatever the visibility gate admits. When both poll dry the
    // reactor spins to the next completion the harvest noted — it never
    // sleeps.
    drv.set_polled(0, true);
    reactor::Reactor reactor{reactor::ReactorConfig{.id = 0}, t};
    // SPDK-style batched submission: refill to full depth only once the
    // queue drains to a half-depth watermark. The engine is per-queue
    // serial, so anything >= 1 outstanding keeps it saturated — same
    // IOPS as greedy refill, but mean occupancy (and with it closed-loop
    // latency, by Little's law) stays below the interrupt path's
    // submit-on-every-completion discipline.
    const u16 watermark = queue_depth / 2;
    const u64 submit_poller =
        reactor.register_poller("blk-submit", [&](sim::SimTime) {
          return drv.in_flight(0) <= watermark && submit_to_depth();
        });
    const u64 complete_poller =
        reactor.register_poller("blk-complete", [&](sim::SimTime) {
          if (drv.harvest_now(t, 0) == 0) {
            return false;
          }
          drain();
          return true;
        });
    while (completed < total) {
      reactor.poll_once();
    }
    reactor.unregister_poller(submit_poller);
    reactor.unregister_poller(complete_poller);
    const reactor::Reactor::Stats& stats = reactor.stats();
    result.reactor_iterations = stats.iterations;
    result.reactor_busy_iterations = stats.busy_iterations;
    result.reactor_dry_windows = stats.dry_windows;
    result.reactor_dry_time = stats.dry_time;
  }

  VFPGA_ASSERT(result.ops == config.ops_per_cell);
  result.span = t.now() - start;
  result.iops = static_cast<double>(total) / (result.span.micros() * 1e-6);
  // Ordering point on the way out: everything the cell wrote is durable
  // and the queue is quiescent (exercises the barrier path per cell).
  VFPGA_ASSERT(drv.flush(t));
  return result;
}

BlkSweepResult run_blk_sweep(const BlkBenchConfig& config) {
  // Cells in canonical order: payload-major, then depth, then
  // {interrupt, reactor} — the order the bench prints and every caller
  // can rely on. Each task writes only its own slot.
  BlkSweepResult result;
  result.cells.resize(config.payloads.size() * config.queue_depths.size() *
                      2);
  std::vector<std::function<void()>> tasks;
  for (const u32 payload : config.payloads) {
    for (const u16 depth : config.queue_depths) {
      for (const BlkCompletionMode mode :
           {BlkCompletionMode::kInterrupt, BlkCompletionMode::kReactorPolled}) {
        tasks.emplace_back([&, slot = tasks.size(), mode, payload, depth] {
          result.cells[slot] = run_blk_cell(config, mode, payload, depth);
        });
      }
    }
  }
  VFPGA_EXPECTS(!tasks.empty());
  const unsigned threads = worker_threads(tasks.size(), config.threads);
  run_parallel(std::move(tasks), threads);
  return result;
}

}  // namespace vfpga::harness
