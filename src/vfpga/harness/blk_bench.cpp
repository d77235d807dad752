#include "vfpga/harness/blk_bench.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/harness/parallel.hpp"
#include "vfpga/reactor/reactor.hpp"
#include "vfpga/sim/event_lane.hpp"

namespace vfpga::harness {

namespace {

/// Sector stride between consecutive ops — co-prime with any power-of-
/// two capacity, so the workload sweeps the whole store and the seek
/// cost model sees realistic head movement.
constexpr u64 kSectorStride = 173;

struct CellRuntime {
  core::VirtioNetTestbed* bed = nullptr;
  hostos::VirtioBlkDriver* drv = nullptr;
  u32 payload = 0;
  u16 depth = 0;
  Bytes write_buf;
  u64 capacity_sectors = 0;
  u32 next_op = 0;  ///< global op index, carried across phases

  bool submit_one() {
    hostos::HostThread& t = bed->thread();
    const u64 io_sectors = payload / virtio::blk::kSectorBytes;
    const u64 sector =
        (u64{next_op} * kSectorStride) % (capacity_sectors - io_sectors);
    const std::optional<u32> slot =
        (next_op % 2 == 0)
            ? drv->submit_write(t, 0, sector, write_buf)
            : drv->submit_read(t, 0, sector, payload);
    if (!slot.has_value()) {
      return false;
    }
    ++next_op;
    return true;
  }

  u32 warmup = 0;    ///< completions to discard before recording latency
  u32 measured = 0;  ///< completions recorded so far

  /// Completions pop in used-ring order; the first `warmup` are the
  /// pipeline-fill ramp and stay out of the latency distribution. IOPS
  /// is deliberately NOT derived from completed_at stamps: the engine
  /// runs ahead of the host, so an interrupt-mode drain clusters a
  /// whole depth of completions on one wake timestamp and any
  /// stamp-bounded window is off by up to a batch. The cell instead
  /// spans the full closed loop on the host clock, where the boundary
  /// batches amortize over the op count.
  void record(const hostos::VirtioBlkDriver::Completion& c,
              BlkCellResult* result) {
    if (warmup > 0) {
      --warmup;
      return;
    }
    ++measured;
    result->latency_us.add(c.completed_at - c.submitted_at);
    if (c.status != virtio::blk::kStatusOk) {
      ++result->failures;
    }
  }
};

/// One (mode, payload, depth) cell as a resumable state machine: the
/// lane sweep advances a cell one completion batch per scheduler event,
/// so a lane multiplexes many cells without nesting their simulations.
/// run_blk_cell just drives the same machine to completion in a loop —
/// chunk boundaries never touch the testbed clock, so both paths
/// compute identical numbers.
class CellRun {
 public:
  CellRun(const BlkBenchConfig& config, BlkCompletionMode mode, u32 payload,
          u16 queue_depth)
      : config_(config), mode_(mode) {
    VFPGA_EXPECTS(payload % virtio::blk::kSectorBytes == 0);
    VFPGA_EXPECTS(config.warmup_ops > 0);
    result_.mode = mode;
    result_.payload = payload;
    result_.queue_depth = queue_depth;
    rt_.payload = payload;
    rt_.depth = queue_depth;
  }

  /// Build the testbed (the expensive part — lanes call this inside an
  /// event, so construction runs in the parallel phase).
  void start() {
    core::TestbedOptions options;
    // Mode-independent seed: both completion paths run the same bed.
    options.seed = config_.seed + u64{result_.payload} * 31 +
                   u64{result_.queue_depth} * 7;
    options.attach_blk = true;
    options.blk.capacity_sectors = config_.capacity_sectors;
    options.blk_driver.queue_depth = result_.queue_depth;
    options.blk_driver.max_io_bytes = result_.payload;
    bed_ = std::make_unique<core::VirtioNetTestbed>(options);

    rt_.bed = bed_.get();
    rt_.drv = &bed_->blk_driver();
    rt_.capacity_sectors = config_.capacity_sectors;
    rt_.write_buf.resize(result_.payload);
    sim::SplitMix64 fill{options.seed ^ 0x1bf52ull};
    for (auto& b : rt_.write_buf) {
      b = static_cast<u8>(fill.next());
    }
    rt_.warmup = config_.warmup_ops;
    total_ = config_.warmup_ops + config_.ops_per_cell;
    start_time_ = bed_->thread().now();
    if (mode_ == BlkCompletionMode::kReactorPolled) {
      bed_->blk_driver().set_polled(0, true);
      reactor_ = std::make_unique<reactor::Reactor>(
          reactor::ReactorConfig{.id = 0}, bed_->thread());
      register_pollers();
    }
  }

  /// Advance one completion batch. Returns true when the cell is done
  /// (the result is finalized and the testbed released).
  bool step() {
    if (mode_ == BlkCompletionMode::kInterrupt) {
      step_interrupt();
    } else {
      step_reactor();
    }
    if (completed_ < total_) {
      return false;
    }
    finalize();
    return true;
  }

  [[nodiscard]] BlkCellResult& result() { return result_; }
  /// Simulated time the cell has consumed so far — the lane sweep maps
  /// this onto the lane clock so lane time tracks cell progress.
  [[nodiscard]] sim::Duration elapsed() const {
    return bed_ != nullptr ? bed_->thread().now() - start_time_
                           : sim::Duration{};
  }

 private:
  /// Interrupt path, one iteration: fill the depth, sleep on the
  /// vector, drain on wake.
  void step_interrupt() {
    hostos::HostThread& t = bed_->thread();
    while (rt_.drv->in_flight(0) < rt_.depth && submitted_ < total_ &&
           rt_.submit_one()) {
      ++submitted_;
    }
    VFPGA_ASSERT(rt_.drv->in_flight(0) > 0);
    if (!rt_.drv->wait_interrupt(t, 0)) {
      completed_ = total_;  // vector torn down: abandon the cell
      return;
    }
    while (auto c = rt_.drv->pop_completion(0)) {
      ++completed_;
      rt_.record(*c, &result_);
    }
  }

  /// Reactor path: a submission poller keeps the queue at depth, a
  /// completion poller reaps whatever the visibility gate admits. When
  /// both poll dry the loop itself advances the clock (the calibrated
  /// reactor_poll_iteration cost) until the next completion surfaces —
  /// the reactor never sleeps. One step spins until a completion lands
  /// (or the batch budget runs out), keeping lane events coarse enough
  /// to amortize their scheduling.
  void step_reactor() {
    constexpr u32 kPollBudget = 512;
    const u32 before = completed_;
    for (u32 i = 0; i < kPollBudget && completed_ < total_; ++i) {
      reactor_->poll_once();
      if (completed_ != before && rt_.drv->in_flight(0) == 0) {
        break;
      }
    }
  }

  void register_pollers() {
    // SPDK-style batched submission: refill to full depth only once the
    // queue drains to a half-depth watermark. The engine is per-queue
    // serial, so anything >= 1 outstanding keeps it saturated — same
    // IOPS as greedy refill, but mean occupancy (and with it closed-loop
    // latency, by Little's law) stays below the interrupt path's
    // submit-on-every-completion discipline.
    const u16 watermark = rt_.depth / 2;
    submit_poller_ =
        reactor_->register_poller("blk-submit", [this, watermark](sim::SimTime) {
          if (rt_.drv->in_flight(0) > watermark) {
            return false;
          }
          bool any = false;
          while (rt_.drv->in_flight(0) < rt_.depth && submitted_ < total_ &&
                 rt_.submit_one()) {
            ++submitted_;
            any = true;
          }
          return any;
        });
    complete_poller_ =
        reactor_->register_poller("blk-complete", [this](sim::SimTime) {
          if (rt_.drv->harvest_now(bed_->thread(), 0) == 0) {
            return false;
          }
          while (auto c = rt_.drv->pop_completion(0)) {
            ++completed_;
            rt_.record(*c, &result_);
          }
          return true;
        });
  }

  void finalize() {
    hostos::HostThread& t = bed_->thread();
    if (reactor_ != nullptr) {
      reactor_->unregister_poller(submit_poller_);
      reactor_->unregister_poller(complete_poller_);
      result_.reactor_iterations = reactor_->stats().iterations;
      result_.reactor_busy_iterations = reactor_->stats().busy_iterations;
    }
    VFPGA_ASSERT(rt_.measured == config_.ops_per_cell);
    const sim::Duration span = t.now() - start_time_;
    result_.ops = rt_.measured;
    result_.iops = static_cast<double>(total_) / (span.micros() * 1e-6);
    // Ordering point on the way out: everything the cell wrote is
    // durable and the queue is quiescent (exercises the barrier path
    // per cell).
    VFPGA_ASSERT(bed_->blk_driver().flush(t));
    reactor_.reset();
    bed_.reset();
  }

  const BlkBenchConfig& config_;
  BlkCompletionMode mode_;
  BlkCellResult result_;
  CellRuntime rt_;
  std::unique_ptr<core::VirtioNetTestbed> bed_;
  std::unique_ptr<reactor::Reactor> reactor_;
  u64 submit_poller_ = 0;
  u64 complete_poller_ = 0;
  u32 total_ = 0;
  u32 submitted_ = 0;
  u32 completed_ = 0;
  sim::SimTime start_time_{};
};

}  // namespace

BlkCellResult run_blk_cell(const BlkBenchConfig& config, BlkCompletionMode mode,
                           u32 payload, u16 queue_depth) {
  CellRun run(config, mode, payload, queue_depth);
  run.start();
  while (!run.step()) {
  }
  return std::move(run.result());
}

BlkSweepResult run_blk_sweep(const BlkBenchConfig& config) {
  // Cells in canonical order: payload-major, then depth, then
  // {interrupt, reactor} — the order the bench prints and every caller
  // can rely on.
  std::vector<std::unique_ptr<CellRun>> runs;
  for (const u32 payload : config.payloads) {
    for (const u16 depth : config.queue_depths) {
      runs.push_back(std::make_unique<CellRun>(
          config, BlkCompletionMode::kInterrupt, payload, depth));
      runs.push_back(std::make_unique<CellRun>(
          config, BlkCompletionMode::kReactorPolled, payload, depth));
    }
  }
  VFPGA_EXPECTS(!runs.empty());

  // Fixed lane count independent of the worker pool: lane assignment
  // (and with it every lane-local event order) must not change with the
  // host's core count, or determinism would only hold per-machine.
  constexpr std::size_t kSweepLanes = 8;
  const u32 lanes =
      static_cast<u32>(std::min<std::size_t>(kSweepLanes, runs.size()));

  sim::LaneSetConfig lc;
  lc.lanes = lanes;
  lc.window = sim::microseconds(100);
  // Cells only talk at completion, so the controller widens the window
  // until barriers are nearly free; each cell's simulation is lane-
  // local and unaffected.
  lc.adaptive.enabled = true;
  lc.adaptive.min_window = sim::microseconds(25);
  lc.adaptive.max_window = sim::milliseconds(10);
  sim::LaneSet set{lc};

  // Round-robin cells to lanes; each lane works its queue in order,
  // one completion batch per event, rescheduling after the simulated
  // time the batch consumed so lane clocks track cell progress (and
  // the window protocol stays fair across lanes).
  std::vector<std::vector<std::size_t>> queues(lanes);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    queues[i % lanes].push_back(i);
  }
  u32 cells_aggregated = 0;
  struct Advance {
    sim::LaneSet& set;
    std::vector<std::unique_ptr<CellRun>>& runs;
    std::vector<std::vector<std::size_t>>& queues;
    std::vector<u8>& started;
    u32* aggregated;

    void operator()(u32 lane, std::size_t qi) const {
      CellRun& run = *runs[queues[lane][qi]];
      sim::Scheduler& sched = set.lane(lane).scheduler();
      if (started[queues[lane][qi]] == 0) {
        // Testbed construction is the expensive part — it runs here,
        // inside the lane's event, i.e. in the parallel phase.
        started[queues[lane][qi]] = 1;
        run.start();
        sched.schedule_after(sim::nanoseconds(1),
                             [copy = *this, lane, qi] { copy(lane, qi); });
        return;
      }
      const sim::Duration before = run.elapsed();
      if (!run.step()) {
        const sim::Duration spent = run.elapsed() - before;
        sched.schedule_after(std::max(spent, sim::nanoseconds(1)),
                             [copy = *this, lane, qi] { copy(lane, qi); });
        return;
      }
      // Cell finished (testbed already released): count it on lane 0
      // through the rings, then take up the lane's next cell.
      set.post(lane, 0, set.horizon(),
               [a = aggregated] { ++*a; });
      if (qi + 1 < queues[lane].size()) {
        sched.schedule_after(sim::nanoseconds(1),
                             [copy = *this, lane, qi] { copy(lane, qi + 1); });
      }
    }
  };
  std::vector<u8> started(runs.size(), 0);
  Advance advance{set, runs, queues, started, &cells_aggregated};
  for (u32 l = 0; l < lanes; ++l) {
    if (queues[l].empty()) {
      continue;
    }
    set.lane(l).scheduler().schedule_at(
        sim::SimTime{} + sim::nanoseconds(1),
        [advance, l] { advance(l, 0); });
  }

  const sim::LaneSet::RunStats lane_stats =
      set.run(worker_threads(lanes, config.threads));
  VFPGA_ASSERT(lane_stats.dropped == 0);

  BlkSweepResult result;
  result.lane_windows = lane_stats.windows;
  result.lane_window_growths = lane_stats.window_growths;
  result.lane_messages = lane_stats.messages;
  result.cells_aggregated = cells_aggregated;
  VFPGA_ASSERT(result.cells_aggregated == runs.size());
  result.cells.reserve(runs.size());
  for (auto& run : runs) {
    result.cells.push_back(std::move(run->result()));
  }
  return result;
}

}  // namespace vfpga::harness
