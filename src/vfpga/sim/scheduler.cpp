#include "vfpga/sim/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "vfpga/common/contract.hpp"

namespace vfpga::sim {

namespace {

/// Min-heap order over (when, seq): std::push/pop_heap build max-heaps,
/// so "later" is the comparator. (when, seq) pairs are unique, making
/// the heap's pop order — and thus the simulation — fully deterministic.
struct Later {
  bool operator()(const Event* a, const Event* b) const {
    if (a->when != b->when) {
      return a->when > b->when;
    }
    return a->seq > b->seq;
  }
};

}  // namespace

Scheduler::~Scheduler() {
  // Unfired events go back to the arena so its live() accounting closes
  // out; the chunks themselves die with the arena member.
  for (Event* event : heap_) {
    arena_.release(event);
  }
}

void Scheduler::schedule_at(SimTime when, Action action) {
  VFPGA_EXPECTS(when >= now_);
  Event* event = arena_.acquire();
  event->when = when;
  event->seq = next_seq_++;
  event->fn = std::move(action);
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Scheduler::schedule_after(Duration delay, Action action) {
  VFPGA_EXPECTS(delay >= Duration{});
  schedule_at(now_ + delay, std::move(action));
}

Event* Scheduler::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event* event = heap_.back();
  heap_.pop_back();
  return event;
}

void Scheduler::fire(Event* event) {
  now_ = event->when;
  // Move the callable out and recycle the node *before* invoking: the
  // action is free to schedule new events, which may reuse this node.
  SmallFn fn = std::move(event->fn);
  arena_.release(event);
  fn();
  ++executed_;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  VFPGA_EXPECTS(deadline >= now_);
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front()->when <= deadline) {
    fire(pop_next());
    ++executed;
  }
  now_ = deadline;
  return executed;
}

}  // namespace vfpga::sim
