// Host software cost model and the simulated host thread.
//
// Every kernel/userspace code segment the two driver stacks execute is a
// calibrated JitteredSegment (median + lognormal jitter); scheduler
// wake-ups are a MixtureSegment (fast path / shallow / deep C-state
// exit — the dominant multi-modality of real wake-up latency). The
// HostThread advances a timeline through these segments, accumulating
// "software residency" that the NoiseModel uses to inject preemption
// interference (see vfpga/sim/noise.hpp for why this reproduces the
// paper's variance structure).
//
// Defaults are calibrated against the paper's testbed class (Fedora,
// desktop-class CPU, no isolation/pinning): absolute values are
// model inputs, not measurements — EXPERIMENTS.md discusses the match.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>

#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::hostos {

struct CostModelConfig {
  // ---- generic kernel entry/exit ----
  sim::JitteredSegment syscall_entry;   ///< user->kernel crossing
  sim::JitteredSegment syscall_exit;    ///< kernel->user return
  sim::MixtureSegment wakeup;           ///< blocked task woken (C-states!)
  sim::JitteredSegment irq_entry;       ///< hard-IRQ entry + dispatch

  // ---- network stack (VirtIO path) ----
  sim::JitteredSegment udp_tx_stack;    ///< sendto: skb, UDP/IP build, route
  sim::JitteredSegment udp_rx_stack;    ///< IP/UDP receive, socket queue
  sim::JitteredSegment virtio_xmit;     ///< virtio-net xmit: hdr+chain+publish
  sim::JitteredSegment virtio_rx_napi;  ///< NAPI poll: harvest used, skb
  sim::JitteredSegment virtio_rx_refill;///< repost RX buffers
  sim::JitteredSegment socket_recv;     ///< recvfrom dequeue + copyout

  // ---- busy-poll datapath (SO_BUSY_POLL / napi_busy_loop model) ----
  sim::JitteredSegment busy_poll_iteration;  ///< one spin: used-ring probe
  sim::JitteredSegment irq_disarm;           ///< mask the queue vector
  sim::JitteredSegment irq_rearm;            ///< re-enable + used_event write

  // ---- zero-copy scatter-gather datapath ----
  /// Per-segment DMA mapping cost (dma_map_single / IOMMU map + sg-list
  /// entry build) charged when the bounce copy is elided: the sg path
  /// trades one memcpy for one of these per descriptor segment.
  sim::JitteredSegment dma_map_segment;

  // ---- virtio-blk request path ----
  /// Per-request submission work: bio -> request header + chain build +
  /// publish (virtio_blk's virtblk_add_req analogue).
  sim::JitteredSegment blk_submit;
  /// Per-completion harvest work: used-entry decode, status check, bio
  /// end (virtblk_done analogue, sans the IRQ machinery around it).
  sim::JitteredSegment blk_complete;

  // ---- reactor (run-to-completion polled execution) ----
  /// One reactor loop iteration's fixed overhead: the poller table
  /// walk (SPDK thread_poll).
  sim::JitteredSegment reactor_poll_iteration;

  // ---- vendor driver (XDMA path) ----
  sim::JitteredSegment xdma_submit;     ///< pin pages, SG map, build descs
  sim::JitteredSegment xdma_isr_body;   ///< ISR bookkeeping (sans MMIO read)
  sim::JitteredSegment xdma_teardown;   ///< unmap/unpin on completion

  // ---- test application ----
  sim::JitteredSegment app_iteration;   ///< loop bookkeeping + clock_gettime

  /// Per-KiB copy cost (copy_{from,to}_user) in nanoseconds while the
  /// working set is cache-resident.
  double copy_ns_per_kib = 40.0;
  /// Copies larger than this leave the cache-resident regime: every
  /// byte past the threshold additionally pays the cold rate below
  /// (memory-bandwidth-bound memcpy with both ends uncached plus page
  /// walks). Baseline round-trip payloads (<= 1 KiB) never cross it,
  /// keeping the paper's figures untouched; the blk driver's 4 KiB
  /// copies do.
  u64 copy_cold_threshold_bytes = 1024;
  /// Extra nanoseconds per KiB for bytes beyond the cold threshold
  /// (combined with the hot rate: ~3 GB/s effective cold-copy speed).
  double copy_cold_extra_ns_per_kib = 300.0;

  /// Defaults representative of the paper's Fedora 37 desktop host.
  static CostModelConfig fedora_defaults();
};

/// The simulated application/kernel thread: a timeline plus software-
/// residency accounting. One HostThread drives one test program.
class HostThread {
 public:
  HostThread(sim::Xoshiro256& rng, const CostModelConfig& costs,
             const sim::NoiseModel& noise, sim::SimTime start = {});

  [[nodiscard]] sim::SimTime now() const { return now_; }
  [[nodiscard]] const CostModelConfig& costs() const { return *costs_; }
  [[nodiscard]] sim::Xoshiro256& rng() { return *rng_; }

  /// Total time this thread spent executing software (excludes blocked
  /// waits and MMIO stalls).
  [[nodiscard]] sim::Duration software_time() const { return software_; }
  /// Total CPU-stalled MMIO wait time (non-posted register reads).
  [[nodiscard]] sim::Duration mmio_stall_time() const { return mmio_stall_; }
  /// Subset of software_time() spent busy-polling (spin loops). A
  /// polling thread is runnable the whole time, so the noise model
  /// charges it interference exactly like any other software segment —
  /// this accumulator only separates "useful" from "spinning" residency
  /// for the CPU-cost-vs-latency trade the poll-mode bench reports.
  [[nodiscard]] sim::Duration poll_time() const { return poll_; }

  /// Execute a software segment: sample its cost, add preemption noise.
  void exec(const sim::JitteredSegment& segment);
  void exec(const sim::MixtureSegment& segment);
  /// Execute a fixed-cost software step (already-sampled or derived).
  void exec_fixed(sim::Duration d);
  /// Execute a segment inside a busy-poll loop: same timeline and noise
  /// behaviour as exec(), additionally accounted as poll residency.
  void exec_poll(const sim::JitteredSegment& segment);
  /// Spin (busy-wait) until `t`: the CPU stays runnable, so the whole
  /// window counts as software + poll residency — but unlike exec(),
  /// the wall-clock end is pinned by the awaited event, so only rare
  /// host-wide stalls (the same exposure block_until() has) delay it
  /// past `t`. Returns the actual time reached (>= t).
  sim::SimTime spin_until(sim::SimTime t);
  /// Copy `bytes` across the user/kernel boundary.
  void copy(u64 bytes);

  /// Next-work hint for a polling loop: a code path that polled dry but
  /// knows when its work becomes visible (a completion not yet landed)
  /// notes that time; the earliest noted time wins. The hint is not part
  /// of the timeline: the reactor takes it once per loop iteration
  /// (reactor/reactor.hpp) and it never survives that iteration.
  void note_next_work(sim::SimTime t) {
    next_work_ = next_work_.has_value() ? std::min(*next_work_, t) : t;
  }
  /// The earliest hint noted since the last take, clearing it.
  std::optional<sim::SimTime> take_next_work() {
    return std::exchange(next_work_, std::nullopt);
  }

  /// CPU stalled on a non-posted MMIO read (not software, not blocked).
  void mmio_stall(sim::Duration d);

  /// Blocked (sleeping) until `t`; no software time accrues. Returns the
  /// actual resume point (>= now()).
  sim::SimTime block_until(sim::SimTime t);

  /// Reset the per-iteration accounting (software/mmio accumulators).
  void reset_accounting();

  /// Snapshot/restore of the timeline and accounting (not the wired-in
  /// rng/cost/noise references, which the restore target already owns).
  void transfer(migrate::StateIo& io);

 private:
  sim::Xoshiro256* rng_;
  const CostModelConfig* costs_;
  const sim::NoiseModel* noise_;
  sim::SimTime now_;
  sim::Duration software_{};
  sim::Duration mmio_stall_{};
  sim::Duration poll_{};
  std::optional<sim::SimTime> next_work_;  ///< not snapshot state
};

}  // namespace vfpga::hostos
