// Run-to-completion reactor threads (SPDK execution model).
//
// A Reactor is one dedicated polling core: an event loop that never
// blocks, owned by exactly one HostThread. Work arrives through
// registered pollers — functions the loop calls every iteration, each
// reporting whether it found work. All state a reactor touches belongs
// to it alone (SPDK lib/thread).
//
// The simulation keeps the model cooperative: poll_once() advances the
// reactor's HostThread by the calibrated reactor_poll_iteration cost
// segment and every poller runs on the reactor's own simulated timeline.
//
// Dry windows are charged in closed form. A poller that polls dry but
// knows when its work becomes visible (the blk completion poller knows
// its next completion's used-ring visibility time) leaves that time on
// the thread with HostThread::note_next_work. When every poller comes
// up dry and the earliest hint lies after now(), the iteration ends
// with one HostThread::spin_until(hint): on-core poll residency whose
// end the arrival pins, the model VirtioBlkDriver::wait_polled uses
// too. The next iteration is an ordinary one and finds the work.
// Without a hint the loop iterates, each iteration paying its own cost.
//
// Contract: a poller that polls dry without leaving a hint stays dry
// until some other poller finds work (a submit poller gated only on
// completions qualifies). A poller whose work can appear on its own,
// without a hint, would be skipped over by another poller's spin.
//
// The hint lives for one poll_once at most: poll_once discards whatever
// a caller outside the loop left (wait_polled leaves one) before it
// walks the pollers, and takes the walk's hint after it. So the hint is
// never state between iterations, and snapshots do not carry it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/hostos/cost_model.hpp"

namespace vfpga::reactor {

/// A poller returns true when it found work this call (busy) and false
/// when it polled dry — the reactor's idle accounting.
using PollerFn = std::function<bool(sim::SimTime now)>;

struct ReactorConfig {
  u32 id = 0;
};

class Reactor {
 public:
  Reactor(ReactorConfig config, hostos::HostThread& thread)
      : config_(config), thread_(&thread) {}

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] u32 id() const { return config_.id; }

  /// Register a poller; it runs on every loop iteration. Not callable
  /// from inside a poller: poll_once() is iterating the table.
  u64 register_poller(std::string name, PollerFn fn) {
    VFPGA_EXPECTS(!polling_);
    pollers_.push_back(Poller{next_id_++, std::move(name), std::move(fn)});
    return pollers_.back().id;
  }

  /// Unregister; safe to call from inside the poller itself.
  void unregister_poller(u64 poller_id) {
    for (Poller& p : pollers_) {
      if (p.id == poller_id) {
        p.dead = true;
        has_dead_ = true;
      }
    }
  }

  /// One loop iteration: charge the loop overhead, then run every live
  /// poller in registration order. When all poll dry and one left a
  /// next-work hint after now(), spin to it. Returns true when any
  /// poller found work.
  bool poll_once() {
    hostos::HostThread& t = *thread_;
    t.take_next_work();  // a hint from outside this iteration is stale
    t.exec_poll(t.costs().reactor_poll_iteration);
    ++stats_.iterations;
    bool busy = false;
    polling_ = true;
    for (Poller& p : pollers_) {
      if (p.dead) {
        continue;
      }
      ++p.runs;
      if (p.fn(t.now())) {
        ++p.busy_runs;
        busy = true;
      }
    }
    polling_ = false;
    if (has_dead_) {
      std::erase_if(pollers_, [](const Poller& p) { return p.dead; });
      has_dead_ = false;
    }
    if (busy) {
      ++stats_.busy_iterations;
    } else if (const auto next = t.take_next_work(); next && *next > t.now()) {
      const sim::SimTime from = t.now();
      ++stats_.dry_windows;
      stats_.dry_time += t.spin_until(*next) - from;
    }
    return busy;
  }

  // ---- observability ---------------------------------------------------------

  struct Stats {
    u64 iterations = 0;
    u64 busy_iterations = 0;
    /// Dry iterations that ended in a spin to a next-work hint, and the
    /// simulated time those spins covered.
    u64 dry_windows = 0;
    sim::Duration dry_time{};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  struct PollerStats {
    std::string name;
    u64 runs = 0;
    u64 busy_runs = 0;
  };
  [[nodiscard]] std::vector<PollerStats> poller_stats() const {
    std::vector<PollerStats> out;
    for (const Poller& p : pollers_) {
      out.push_back({p.name, p.runs, p.busy_runs});
    }
    return out;
  }

 private:
  struct Poller {
    u64 id = 0;
    std::string name;
    PollerFn fn;
    u64 runs = 0;
    u64 busy_runs = 0;
    bool dead = false;
  };

  ReactorConfig config_;
  hostos::HostThread* thread_;
  std::vector<Poller> pollers_;
  u64 next_id_ = 1;
  bool polling_ = false;   ///< inside poll_once's walk of pollers_
  bool has_dead_ = false;  ///< some poller awaits compaction
  Stats stats_;
};

}  // namespace vfpga::reactor
