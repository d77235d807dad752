// Sharded parallel event lanes under conservative time-window sync.
//
// A LaneSet partitions a simulation into K independent EventLanes (one
// per queue pair in the scale harness), each owning a private Scheduler.
// Simulated time advances in windows: every lane executes its own events
// up to the window horizon with NO shared state, all lanes barrier,
// cross-lane messages are routed, and the set advances to the window
// containing the earliest pending work. This is classic conservative
// parallel discrete-event simulation: the window length is the
// lookahead, so a message sent in window W can only take effect in
// window W+1 or later — no lane can ever observe an effect from a peer
// whose clock it has already passed.
//
// Cross-lane sends travel through the visibility-gated MessageRing: one
// SPSC ring per (source, destination) lane pair, posted_at carrying the
// message's due time. Staging is lane-local during the parallel phase;
// the actual ring pushes happen in the single-threaded barrier phase in
// canonical (source id, FIFO) order, and receivers drain rings in
// source-id order at their next window start. Every ordering decision is
// therefore a pure function of simulation state — results are
// bit-identical at ANY worker-thread count, so `VFPGA_THREADS=1` is the
// oracle for the parallel build (the determinism gates in bench/sim_speed
// and CI enforce exactly this).
#pragma once

#include <memory>
#include <vector>

#include "vfpga/reactor/message_ring.hpp"
#include "vfpga/sim/scheduler.hpp"

namespace vfpga::sim {

/// The only lane sync protocol. Kept as a one-value enum because the
/// benchmark harness still assigns SimSpeedConfig::sync.
enum class SyncMode : u8 { kConservative };

struct LaneSetConfig {
  u32 lanes = 1;
  /// Window length == conservative lookahead: the minimum cross-lane
  /// latency. Larger windows barrier less often but delay messages more.
  Duration window = microseconds(100);
};

class LaneSet;

/// One shard: a private Scheduler plus its cross-lane mailboxes. All
/// mutable state is owned by exactly one worker during a window.
class EventLane {
 public:
  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  [[nodiscard]] u32 id() const { return id_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] SimTime now() const { return sched_.now(); }
  /// Cross-lane messages delivered to this lane so far.
  [[nodiscard]] u64 received_messages() const { return received_; }

 private:
  friend class LaneSet;

  EventLane(u32 id, u32 sources);

  struct Outgoing {
    u32 dst = 0;
    SimTime due{};
    SmallFn fn;
  };

  u32 id_ = 0;
  Scheduler sched_;
  /// inbox_[src]: SPSC ring carrying messages from lane `src`.
  std::vector<reactor::MessageRing> inbox_;
  /// Sends staged during this window, routed at the barrier.
  std::vector<Outgoing> outbox_;
  u64 received_ = 0;
  /// Whether this window fired any event (the residency input).
  bool window_busy_ = false;
};

class LaneSet {
 public:
  /// Capacity of each (source, destination) message ring: a send to a
  /// full ring is dropped and counted in RunStats::dropped.
  static constexpr u32 kRingCapacity = 4096;

  explicit LaneSet(LaneSetConfig config);

  [[nodiscard]] u32 size() const { return static_cast<u32>(lanes_.size()); }
  [[nodiscard]] EventLane& lane(u32 i) { return *lanes_.at(i); }
  /// End of the window currently executing. Stable for the whole
  /// parallel phase.
  [[nodiscard]] SimTime horizon() const { return horizon_; }

  /// Send `fn` to run on lane `dst` at simulated time `due`. Must be
  /// called from code executing on lane `src` (an event or a delivered
  /// message) with `due >= horizon()`: the message cannot take effect in
  /// the window that is still executing. Delivery respects per-(src,dst)
  /// FIFO order; a message is executed at max(due, visibility of
  /// everything queued ahead of it), exactly the MessageRing contract.
  void post(u32 src, u32 dst, SimTime due, SmallFn fn);

  /// Per-lane time residency over the executed windows.
  struct LaneResidency {
    u64 busy_windows = 0;  ///< windows with >= 1 event fired
    u64 idle_windows = 0;  ///< windows with no events
    /// Windows this lane spent entirely idle while at least one peer
    /// executed events — windows it only attended for the barrier.
    u64 barrier_waits = 0;
  };

  struct RunStats {
    u64 windows = 0;   ///< window phases executed
    u64 barriers = 0;  ///< barrier phases executed (one per window)
    u64 events = 0;    ///< lane scheduler events fired
    u64 messages = 0;  ///< cross-lane messages routed into rings
    u64 dropped = 0;   ///< sends lost to a full ring (0 in a sane setup)
    std::vector<LaneResidency> residency;  ///< one entry per lane
  };

  /// Run to global quiescence (all schedulers idle, all rings and
  /// outboxes empty) on up to `threads` workers; `threads` is clamped
  /// to the lane count and <= 1 selects the sequential reference
  /// executor. The result — every lane's event order, clocks, message
  /// deliveries — is bit-identical for every value of `threads`.
  RunStats run(unsigned threads);

 private:
  /// Parallel phase: deliver every inbound message visible before the
  /// horizon, then execute the lane's events up to it. Touches only
  /// lane state.
  void step_lane(EventLane& lane);
  /// Barrier phase (single-threaded): route every staged send in
  /// canonical order, account the window, and open the next one.
  void finish_window();
  /// Barrier phase: open the window containing the earliest pending
  /// work; returns false (and latches done_) at global quiescence.
  bool begin_window();

  LaneSetConfig config_;
  std::vector<std::unique_ptr<EventLane>> lanes_;
  /// End of the window currently executing (between windows: of the
  /// last one finished — every lane's state is final up to here).
  SimTime horizon_{};
  bool done_ = false;
  RunStats stats_;
};

}  // namespace vfpga::sim
