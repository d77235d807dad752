// Host-side noise model.
//
// The paper attributes latency variance to "noise introduced by
// background processes executing on the host machine" and to the software
// stack generally (§III-B.3, §V). We model three mechanisms:
//
//  1. Per-segment jitter — cache/TLB/branch variation within a kernel
//     code path; already folded into each JitteredSegment (lognormal).
//  2. Preemption/IRQ interference — a Poisson process that runs only
//     while the simulated CPU executes software. Each event adds a delay
//     drawn from a two-class mixture: common, short interference
//     (device IRQs, timer ticks, kworker wakeups — exponential, ~µs) and
//     rare, long stalls (SMIs, RCU, page allocation stalls —
//     Pareto-tailed, tens of µs).
//  3. Wake-up cost — when a blocked task is woken by an interrupt, the
//     CPU may be in an idle C-state; exit latency is multi-modal. This
//     lives in the cost model (MixtureSegment), not here, but uses the
//     same RNG stream.
//
// Mechanism 2 is the one that makes noise *proportional to software
// residency*: a driver stack that spends 2x longer in kernel code is
// exposed to ~2x the interference events. This is how the experiment
// reproduces "XDMA shows higher variance" structurally rather than by
// assertion, and why the p99.9 tails converge (a rare long stall hits
// either stack about equally hard).
#pragma once

#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {

struct NoiseConfig {
  /// Common interference events per microsecond of software execution.
  double common_rate_per_us = 0.012;
  /// Mean of the (exponential) common interference delay, ns.
  double common_mean_ns = 6'500.0;

  /// Rare stall events per microsecond of *wall-clock* time (they hit
  /// sleeping tasks too: an expired timer wheel, RCU, SMI — so both
  /// driver stacks see roughly equal exposure per round trip, which is
  /// why the paper's p99.9 gap closes while p95/p99 do not).
  double rare_rate_per_us = 0.00004;
  /// Rare stalls: offset + Pareto(scale, shape), ns.
  double rare_offset_ns = 27'000.0;
  double rare_pareto_scale_ns = 12'000.0;
  double rare_pareto_shape = 2.2;
  /// Hard cap on a single rare stall (watchdog-ish), ns.
  double rare_cap_ns = 220'000.0;

  /// Set false to produce a noise-free (calibration) run.
  bool enabled = true;
};

/// Samples interference delay accumulated while `software_time` elapses
/// on the host CPU. Stateless apart from the RNG passed in.
///
/// Each draw is a Poisson count whose mean is ~1e-3 or less, so nearly
/// every call ends at its first uniform with no delay: that path is
/// inline, and only the delay loops are in noise.cpp.
class NoiseModel {
 public:
  NoiseModel() = default;
  explicit NoiseModel(NoiseConfig config) : config_(config) {}

  [[nodiscard]] const NoiseConfig& config() const { return config_; }

  /// Common interference accrued over a software segment (preemptions,
  /// IRQs — proportional to execution time).
  [[nodiscard]] Duration interference(Xoshiro256& rng,
                                      Duration software_time) const {
    if (!config_.enabled || software_time <= Duration{}) {
      return Duration{};
    }
    return interference_over(rng, software_time.micros());
  }

  /// Rare long stalls accrued over any wall-clock interval, including
  /// blocked waits (see rare_rate_per_us).
  [[nodiscard]] Duration rare_stall(Xoshiro256& rng, Duration elapsed) const {
    if (!config_.enabled || elapsed <= Duration{}) {
      return Duration{};
    }
    return rare_stall_over(rng, elapsed.micros());
  }

  /// Both kinds of noise accrued while `software_time` executes: the
  /// rare stall is drawn first, then the interference. The order is part
  /// of the seeded stream; the goldens were recorded with it.
  [[nodiscard]] Duration software_noise(Xoshiro256& rng,
                                        Duration software_time) const {
    if (!config_.enabled || software_time <= Duration{}) {
      return Duration{};
    }
    const double us = software_time.micros();
    // Its own statement: a sum's operands are unsequenced.
    const Duration stall = rare_stall_over(rng, us);
    return interference_over(rng, us) + stall;
  }

 private:
  Duration interference_over(Xoshiro256& rng, double us) const {
    const u64 events = sample_poisson(rng, config_.common_rate_per_us * us);
    return events == 0 ? Duration{} : common_delays(rng, events);
  }
  Duration rare_stall_over(Xoshiro256& rng, double us) const {
    const u64 events = sample_poisson(rng, config_.rare_rate_per_us * us);
    return events == 0 ? Duration{} : rare_delays(rng, events);
  }

  /// The summed delays of `events` common interference events.
  Duration common_delays(Xoshiro256& rng, u64 events) const;
  /// The summed delays of `events` rare stalls, each capped.
  Duration rare_delays(Xoshiro256& rng, u64 events) const;

  NoiseConfig config_{};
};

}  // namespace vfpga::sim
