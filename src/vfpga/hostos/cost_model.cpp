#include "vfpga/hostos/cost_model.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::hostos {

using sim::from_nanos;
using sim::JitteredSegment;
using sim::MixtureSegment;
using sim::nanoseconds;

CostModelConfig CostModelConfig::fedora_defaults() {
  CostModelConfig c;

  // Kernel crossings: a few hundred ns on a mitigated desktop kernel.
  c.syscall_entry = {nanoseconds(260), 0.18, nanoseconds(150), {}};
  c.syscall_exit = {nanoseconds(240), 0.18, nanoseconds(140), {}};
  c.irq_entry = {nanoseconds(1100), 0.30, nanoseconds(550), {}};

  // Scheduler wake-up of a blocked task: strongly multi-modal. The three
  // components model (a) target CPU already awake, (b) C1/C1E exit,
  // (c) deeper C-state exit / runqueue contention. Desktop Fedora with
  // default cpuidle governors sees all three.
  c.wakeup = MixtureSegment{{
      {0.52, {nanoseconds(1300), 0.25, nanoseconds(700), {}}},
      {0.35, {nanoseconds(3600), 0.30, nanoseconds(1600), {}}},
      {0.13, {nanoseconds(11000), 0.35, nanoseconds(4500), sim::microseconds(40)}},
  }};

  // Socket/UDP/IP stack traversal per sendto()/receive.
  c.udp_tx_stack = {nanoseconds(2200), 0.16, nanoseconds(1300), {}};
  c.udp_rx_stack = {nanoseconds(1900), 0.16, nanoseconds(1100), {}};
  c.socket_recv = {nanoseconds(700), 0.18, nanoseconds(350), {}};

  // virtio-net driver segments.
  c.virtio_xmit = {nanoseconds(860), 0.18, nanoseconds(450), {}};
  c.virtio_rx_napi = {nanoseconds(1200), 0.25, nanoseconds(650), {}};
  c.virtio_rx_refill = {nanoseconds(520), 0.20, nanoseconds(250), {}};

  // Busy-poll datapath. One spin iteration is a used-ring cache-line
  // probe plus loop overhead — the line is resident after the first
  // miss, so the per-iteration cost is small and tight. Disarm is a
  // flag write; re-arm writes used_event and re-checks the ring (the
  // race close Linux's virtqueue_enable_cb performs).
  c.busy_poll_iteration = {nanoseconds(60), 0.20, nanoseconds(25), {}};
  c.irq_disarm = {nanoseconds(90), 0.25, nanoseconds(40), {}};
  c.irq_rearm = {nanoseconds(180), 0.25, nanoseconds(80), {}};

  // Mapping one sg segment for device DMA: streaming-DMA map (cache
  // maintenance is a no-op on x86; the cost is the IOMMU/swiotlb check
  // plus the sg entry build). Cheap relative to copying a page.
  c.dma_map_segment = {nanoseconds(80), 0.20, nanoseconds(40), {}};

  // virtio-blk request path: header+chain build per bio on submit,
  // used-entry decode + bio end on completion. Cheaper than the net
  // xmit path (no skb, no protocol headers), costlier than a bare ring
  // operation. Sampled only when a blk driver runs — the net-only
  // figures never draw from these streams.
  c.blk_submit = {nanoseconds(620), 0.18, nanoseconds(320), {}};
  c.blk_complete = {nanoseconds(480), 0.20, nanoseconds(240), {}};

  // Reactor loop: one iteration's fixed overhead is a poller-table walk
  // (SPDK measures ~100-300ns per idle thread_poll).
  c.reactor_poll_iteration = {nanoseconds(110), 0.20, nanoseconds(45), {}};

  // XDMA character-device driver segments. Submission pins user pages,
  // builds the SG table and descriptors, and flushes them — the
  // per-transfer work VirtIO does not have (§IV-A).
  c.xdma_submit = {nanoseconds(2600), 0.45, nanoseconds(1300), {}};
  c.xdma_isr_body = {nanoseconds(640), 0.40, nanoseconds(280), {}};
  c.xdma_teardown = {nanoseconds(900), 0.45, nanoseconds(400), {}};

  // Test-application loop body (clock_gettime pair, buffer touch).
  c.app_iteration = {nanoseconds(280), 0.15, nanoseconds(140), {}};

  c.copy_ns_per_kib = 40.0;
  return c;
}

HostThread::HostThread(sim::Xoshiro256& rng, const CostModelConfig& costs,
                       const sim::NoiseModel& noise, sim::SimTime start)
    : rng_(&rng), costs_(&costs), noise_(&noise), now_(start) {}

void HostThread::exec(const JitteredSegment& segment) {
  exec_fixed(segment.sample(*rng_));
}

void HostThread::exec(const MixtureSegment& segment) {
  exec_fixed(segment.sample(*rng_));
}

void HostThread::exec_fixed(sim::Duration d) {
  VFPGA_EXPECTS(d >= sim::Duration{});
  const sim::Duration spent = d + noise_->software_noise(*rng_, d);
  now_ += spent;
  software_ += spent;
}

void HostThread::exec_poll(const JitteredSegment& segment) {
  const sim::Duration before = software_;
  exec_fixed(segment.sample(*rng_));
  poll_ += software_ - before;  // segment + its interference
}

sim::SimTime HostThread::spin_until(sim::SimTime t) {
  // The spinner burns the whole window on-core (software + poll
  // residency), but the window's wall-clock length is pinned by the
  // data's arrival at `t`: a preemption that hits mid-window completes
  // before the data lands and costs nothing beyond the cycles already
  // burned. Only host-wide rare stalls (SMIs, timer storms) that
  // overlap the arrival instant delay detection — the same exposure a
  // sleeping task's wake-up has in block_until().
  if (t > now_) {
    const sim::Duration spun = t - now_;
    now_ = t + noise_->rare_stall(*rng_, spun);
    const sim::Duration burned = spun + (now_ - t);
    software_ += burned;
    poll_ += burned;
  }
  return now_;
}

void HostThread::copy(u64 bytes) {
  double ns = costs_->copy_ns_per_kib * static_cast<double>(bytes) / 1024.0;
  if (bytes > costs_->copy_cold_threshold_bytes) {
    // Beyond the cache-resident regime every additional byte also pays
    // the memory-bandwidth-bound rate. Single exec_fixed either way, so
    // the RNG draw count (and thus every baseline timeline) is
    // unchanged by the tier.
    ns += costs_->copy_cold_extra_ns_per_kib *
          static_cast<double>(bytes - costs_->copy_cold_threshold_bytes) /
          1024.0;
  }
  exec_fixed(from_nanos(ns));
}

void HostThread::mmio_stall(sim::Duration d) {
  VFPGA_EXPECTS(d >= sim::Duration{});
  now_ += d;
  mmio_stall_ += d;
}

sim::SimTime HostThread::block_until(sim::SimTime t) {
  // Rare host-wide stalls (timer storms, RCU, SMIs) delay the wake-up of
  // a sleeping task just as they delay running code; exposure follows
  // the wall-clock sleep length.
  const sim::Duration slept =
      t > now_ ? t - now_ : sim::Duration{};
  now_ = std::max(now_, t) + noise_->rare_stall(*rng_, slept);
  return now_;
}

void HostThread::reset_accounting() {
  software_ = sim::Duration{};
  mmio_stall_ = sim::Duration{};
  poll_ = sim::Duration{};
}

void HostThread::transfer(migrate::StateIo& io) {
  io.time(now_);
  io.duration(software_);
  io.duration(mmio_stall_);
  io.duration(poll_);
}

}  // namespace vfpga::hostos
