#include "vfpga/sim/event_lane.hpp"

#include <algorithm>
#include <barrier>
#include <optional>
#include <thread>
#include <utility>

#include "vfpga/common/contract.hpp"

namespace vfpga::sim {

namespace {

// Adaptive window controller thresholds.
/// EWMA messages/window at or above this: halve the window (the lanes
/// are talking — tighten the lookahead immediately).
constexpr i64 kHighMessages = 8;
/// EWMA messages/window at or below this counts as a quiet window.
constexpr i64 kLowMessages = 1;
/// Consecutive quiet windows before the window doubles. Hysteresis:
/// growth is patient, shrink is immediate.
constexpr u32 kGrowPatience = 4;
static_assert(kGrowPatience >= 1);
static_assert(kHighMessages > kLowMessages);

}  // namespace

LaneSet::LaneSet(LaneSetConfig config) : config_(config) {
  VFPGA_EXPECTS(config_.lanes >= 1);
  VFPGA_EXPECTS(config_.window > Duration{});
  VFPGA_EXPECTS(config_.ring_capacity >= 2);
  if (config_.adaptive.enabled) {
    VFPGA_EXPECTS(config_.adaptive.min_window > Duration{});
    VFPGA_EXPECTS(config_.adaptive.min_window <= config_.window);
    VFPGA_EXPECTS(config_.window <= config_.adaptive.max_window);
  }
  window_ = config_.window;
  lanes_.reserve(config_.lanes);
  for (u32 i = 0; i < config_.lanes; ++i) {
    lanes_.push_back(std::unique_ptr<EventLane>(
        new EventLane(i, config_.lanes, config_.ring_capacity)));
  }
}

void LaneSet::post(u32 src, u32 dst, SimTime due, SmallFn fn) {
  VFPGA_EXPECTS(src < lanes_.size() && dst < lanes_.size());
  // Conservative-window invariant: the send cannot land inside the
  // window that is still executing — the destination may already have
  // run past any earlier instant.
  VFPGA_EXPECTS(due >= horizon_);
  lanes_[src]->outbox_.push_back(
      EventLane::Outgoing{dst, due, std::move(fn)});
}

void LaneSet::step_lane(EventLane& lane) {
  // Deliver every inbound message visible before the horizon, in
  // source-id order then per-ring FIFO — a canonical order independent
  // of which worker ran the sending lane. Execution time is
  // max(due, lane clock): a FIFO head due beyond the horizon blocks the
  // messages behind it until its own window (the MessageRing visibility
  // contract), which can only delay a message, never reorder a channel.
  const u64 before = lane.sched_.executed();
  const SimTime visible_before{horizon_.picos() - 1};
  for (reactor::MessageRing& ring : lane.inbox_) {
    while (true) {
      const std::optional<SimTime> due = ring.next_visible_at();
      if (!due.has_value() || *due > visible_before) {
        break;
      }
      std::optional<reactor::Message> msg = ring.try_pop(visible_before);
      lane.sched_.schedule_at(std::max(*due, lane.sched_.now()),
                              std::move(*msg));
      ++lane.received_;
    }
  }
  lane.sched_.run_until(visible_before);
  lane.window_busy_ = lane.sched_.executed() != before;
}

void LaneSet::retune_window() {
  const LaneSetConfig::AdaptiveWindow& a = config_.adaptive;
  if (!a.enabled || lanes_.size() <= 1) {
    return;  // fixed window, or a single lane with no peer to sync with
  }
  u32 busy_lanes = 0;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    busy_lanes += lane->window_busy_ ? 1u : 0u;
  }
  const i64 window_messages =
      static_cast<i64>(stats_.messages - messages_at_retune_);
  messages_at_retune_ = stats_.messages;

  // x256 fixed-point EWMAs with alpha = 1/4 — integer arithmetic only,
  // so every thread count computes the identical trajectory.
  message_ewma_x256_ += (window_messages * 256 - message_ewma_x256_) / 4;
  const i64 busy_x256 = static_cast<i64>(busy_lanes) * 256;
  busy_ewma_x256_ += (busy_x256 - busy_ewma_x256_) / 4;

  if (message_ewma_x256_ >= kHighMessages * 256) {
    // Chatty: messages are waiting a whole window for delivery. Shrink
    // immediately — latency is paid per message, barriers per window.
    quiet_streak_ = 0;
    const Duration halved{window_.picos() / 2};
    const Duration next = std::max(halved, a.min_window);
    if (next < window_) {
      window_ = next;
      ++stats_.window_shrinks;
    }
    return;
  }
  if (message_ewma_x256_ > kLowMessages * 256) {
    quiet_streak_ = 0;  // middle band: hold
    return;
  }
  // Quiet window. Mostly-idle lane sets (under half the lanes executed
  // anything) count double toward the patience threshold: an all-idle
  // fleet reaches the max window twice as fast as a busy-but-silent one.
  const i64 half_busy_x256 = static_cast<i64>(lanes_.size()) * 128;
  quiet_streak_ += busy_ewma_x256_ <= half_busy_x256 ? 2u : 1u;
  if (quiet_streak_ < kGrowPatience) {
    return;
  }
  quiet_streak_ = 0;
  const Duration next = std::min(window_ * 2, a.max_window);
  if (next > window_) {
    window_ = next;
    ++stats_.window_growths;
  }
}

bool LaneSet::begin_window() {
  std::optional<SimTime> earliest;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    if (!lane->sched_.idle()) {
      const SimTime due = lane->sched_.next_due();
      if (!earliest.has_value() || due < *earliest) {
        earliest = due;
      }
    }
    for (const reactor::MessageRing& ring : lane->inbox_) {
      const auto visible = ring.next_visible_at();
      if (visible.has_value() &&
          (!earliest.has_value() || *visible < *earliest)) {
        earliest = visible;
      }
    }
  }
  if (!earliest.has_value()) {
    done_ = true;
    return false;
  }
  // Jump to the window containing the earliest pending work — idle
  // stretches cost one barrier, not one barrier per empty window. The
  // pending work is never behind the finished horizon (executed events
  // are gone, posts and undelivered ring entries are at or past it), so
  // the new horizon strictly grows even when the adaptive controller
  // just changed the width.
  const i64 w = window_.picos();
  const i64 base = std::max(earliest->picos(), horizon_.picos());
  horizon_ = SimTime{(base / w + 1) * w};
  ++stats_.barriers;
  return true;
}

void LaneSet::finish_window() {
  // Route staged sends in canonical (source id, FIFO) order.
  for (const std::unique_ptr<EventLane>& src : lanes_) {
    for (EventLane::Outgoing& out : src->outbox_) {
      reactor::MessageRing& ring = lanes_[out.dst]->inbox_[src->id_];
      if (ring.try_push(std::move(out.fn), out.due)) {
        ++stats_.messages;
      } else {
        ++stats_.dropped;
      }
    }
    src->outbox_.clear();
  }

  ++stats_.windows;
  bool any_busy = false;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    any_busy = any_busy || lane->window_busy_;
  }
  for (u32 i = 0; i < lanes_.size(); ++i) {
    const bool busy = lanes_[i]->window_busy_;
    LaneResidency& res = stats_.residency[i];
    res.busy_windows += busy ? 1u : 0u;
    res.idle_windows += busy ? 0u : 1u;
    if (!busy && any_busy) {
      ++res.barrier_waits;
    }
  }
  retune_window();
  begin_window();
}

LaneSet::RunStats LaneSet::run(unsigned threads) {
  u64 events_before = 0;
  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    events_before += lane->sched_.executed();
  }
  stats_ = RunStats{};
  stats_.residency.assign(lanes_.size(), LaneResidency{});
  done_ = false;
  window_ = config_.window;
  message_ewma_x256_ = 0;
  busy_ewma_x256_ = 0;
  messages_at_retune_ = 0;
  quiet_streak_ = 0;

  if (!begin_window()) {
    return stats_;
  }

  const unsigned workers = std::min<unsigned>(
      std::max(threads, 1u), static_cast<unsigned>(lanes_.size()));
  if (workers <= 1) {
    while (!done_) {
      for (const std::unique_ptr<EventLane>& lane : lanes_) {
        step_lane(*lane);
      }
      finish_window();
    }
  } else {
    // Persistent workers, two phases per window. The barrier completion
    // callback is the single-threaded phase: every worker is blocked in
    // arrive_and_wait while it routes messages and opens the next
    // window, and its return synchronizes-with every worker's wakeup —
    // done_ and the horizon need no further synchronization.
    std::barrier sync(static_cast<std::ptrdiff_t>(workers),
                      [this]() noexcept { finish_window(); });
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([this, w, workers, &sync] {
        while (!done_) {
          for (std::size_t i = w; i < lanes_.size(); i += workers) {
            step_lane(*lanes_[i]);
          }
          sync.arrive_and_wait();
        }
      });
    }
  }

  for (const std::unique_ptr<EventLane>& lane : lanes_) {
    stats_.events += lane->sched_.executed();
  }
  stats_.events -= events_before;
  return stats_;
}

}  // namespace vfpga::sim
