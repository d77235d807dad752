// Discrete-event scheduler.
//
// The round-trip experiments are transaction-level-modelled (each
// hardware call takes a start time and returns a completion time) and
// need no event queue. The event lanes (sim/event_lane.hpp) do: each
// lane owns one Scheduler and runs it window by window with run_until.
// Events at equal timestamps fire in FIFO order (a monotone sequence
// number breaks ties), so simulation is deterministic.
//
// Internals are built for throughput, not just correctness: events are
// intrusive arena-pooled nodes (sim/event.hpp) ordered by a flat binary
// heap of node pointers, and the callable is a SmallFn whose captures
// live inline. In steady state — the event lanes re-scheduling the same
// flow events millions of times — schedule_at/run perform zero heap
// allocations per event; tests pin this via arena().node_allocations()
// and SmallFn::heap_allocations().
#pragma once

#include <vector>

#include "vfpga/sim/event.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {

class Scheduler {
 public:
  using Action = SmallFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the earliest pending event; undefined when idle().
  [[nodiscard]] SimTime next_due() const { return heap_.front()->when; }

  /// Schedule `action` at absolute time `when` (must not be in the past).
  void schedule_at(SimTime when, Action action);

  /// Schedule `action` `delay` after the current time.
  void schedule_after(Duration delay, Action action);

  /// Run events with timestamp <= `deadline`; time advances to `deadline`
  /// even if the queue drains early. Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Lifetime total of events executed.
  [[nodiscard]] u64 executed() const { return executed_; }

  /// The node pool — exposes allocation counters for the zero-alloc
  /// steady-state regression test.
  [[nodiscard]] const EventArena& arena() const { return arena_; }

 private:
  /// Pop the earliest (when, seq) event off the flat heap.
  Event* pop_next();
  /// Run one event: move the callable out, recycle the node, invoke.
  void fire(Event* event);

  std::vector<Event*> heap_;
  EventArena arena_;
  SimTime now_{};
  u64 next_seq_ = 0;
  u64 executed_ = 0;
};

}  // namespace vfpga::sim
