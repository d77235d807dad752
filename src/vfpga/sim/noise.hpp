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
//
// Every noise check is a Poisson draw of mean rate · t, and more than
// 99.8% of them draw zero events. sample_poisson decides zero when its
// first uniform u is below poisson_zero_cutoff(mean) = 1 - mean - 2^-48,
// which needs the mean as a double: t.micros() divides the picoseconds
// by 10^6. PoissonZeroTest decides the same case in integers instead.
// With x = the draw's top 53 bits (u = x·2^-53), ps = t.picos() and an
// integer slope k ≥ rate·2^53/10^6·(1+2^-40), it says zero when
//
//     x + ps·k < 2^53 - 64.
//
// That implies the double test. ps·k ≥ μ·2^53 for the exact mean
// μ = rate·ps/10^6, so u < 1 - μ - 2^-47. The double mean is μ rounded
// twice (ps/10^6, then ·rate), at most 2^-52 above μ when μ < 1, and
// the cutoff's two subtractions round by at most 2^-54 each, so the
// cutoff is above 1 - μ - 2^-48 - 2^-51 > 1 - μ - 2^-47. Where the
// integer test fails, or ps is past the longest segment it decides
// (ps·k ≤ 2^53 - 64, so μ < 1), the double mean is formed and the
// cutoff runs on the same draw. The draws, Durations and generator
// state are the ones sample_poisson gives.
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

/// The zero-event case of Poisson draws at one rate per microsecond,
/// decided on a segment's integer picoseconds (see the header comment).
/// A default-constructed test, and one for a rate that is not in
/// [2^-900, 2^19), decides nothing: slope() and max_picos() are 0.
/// Below 2^-900 a segment's double mean could round to 0, where
/// sample_poisson draws nothing; at 2^19 a 2 ps segment's mean is past 1.
class PoissonZeroTest {
 public:
  /// Draws whose top 53 bits plus ps·slope() fall below this are zero.
  static constexpr u64 kZeroBelow = (u64{1} << 53) - 64;

  PoissonZeroTest() = default;
  explicit PoissonZeroTest(double rate_per_us);

  /// The least integer k ≥ rate·2^53/10^6·(1+2^-40); 0 when off.
  [[nodiscard]] u64 slope() const { return slope_; }
  /// The longest segment decided: ps·slope() ≤ kZeroBelow. 0 when off.
  [[nodiscard]] i64 max_picos() const { return max_picos_; }

  /// A 53-bit draw below this has zero events over `ps` picoseconds.
  /// Requires 0 < ps ≤ max_picos().
  [[nodiscard]] u64 threshold(i64 ps) const {
    return kZeroBelow - static_cast<u64>(ps) * slope_;
  }

 private:
  u64 slope_ = 0;
  i64 max_picos_ = 0;
};

/// Samples interference delay accumulated while `software_time` elapses
/// on the host CPU. Stateless apart from the RNG passed in: the zero
/// tests are derived from the config.
///
/// Each draw is a Poisson count whose mean is ~1e-3 or less, so nearly
/// every call ends at its first draw with no delay: that path is inline,
/// and only the draws past the zero test are in noise.cpp.
class NoiseModel {
 public:
  NoiseModel() : NoiseModel(NoiseConfig{}) {}
  explicit NoiseModel(NoiseConfig config)
      : config_(config),
        common_zero_(config.common_rate_per_us),
        rare_zero_(config.rare_rate_per_us) {}

  [[nodiscard]] const NoiseConfig& config() const { return config_; }

  /// Common interference accrued over a software segment (preemptions,
  /// IRQs — proportional to execution time).
  [[nodiscard]] Duration interference(Xoshiro256& rng,
                                      Duration software_time) const {
    if (!config_.enabled || software_time <= Duration{}) {
      return Duration{};
    }
    return interference_over(rng, software_time);
  }

  /// Rare long stalls accrued over any wall-clock interval, including
  /// blocked waits (see rare_rate_per_us).
  [[nodiscard]] Duration rare_stall(Xoshiro256& rng, Duration elapsed) const {
    if (!config_.enabled || elapsed <= Duration{}) {
      return Duration{};
    }
    return rare_stall_over(rng, elapsed);
  }

  /// Both kinds of noise accrued while `software_time` executes: the
  /// rare stall is drawn first, then the interference. The order is part
  /// of the seeded stream; the goldens were recorded with it.
  [[nodiscard]] Duration software_noise(Xoshiro256& rng,
                                        Duration software_time) const {
    if (!config_.enabled || software_time <= Duration{}) {
      return Duration{};
    }
    // Its own statement: a sum's operands are unsequenced.
    const Duration stall = rare_stall_over(rng, software_time);
    return interference_over(rng, software_time) + stall;
  }

 private:
  Duration interference_over(Xoshiro256& rng, Duration t) const {
    const u64 events =
        count_events(rng, common_zero_, config_.common_rate_per_us, t);
    return events == 0 ? Duration{} : common_delays(rng, events);
  }
  Duration rare_stall_over(Xoshiro256& rng, Duration t) const {
    const u64 events =
        count_events(rng, rare_zero_, config_.rare_rate_per_us, t);
    return events == 0 ? Duration{} : rare_delays(rng, events);
  }

  /// sample_poisson(rng, rate · t.micros()) for t > 0, with the first
  /// draw's zero case decided by `zero` where it can.
  static u64 count_events(Xoshiro256& rng, const PoissonZeroTest& zero,
                          double rate, Duration t) {
    const i64 ps = t.picos();
    if (ps > zero.max_picos()) {
      return sample_poisson(rng, rate * t.micros());
    }
    // Past the integer test, sample_poisson's path goes on from
    // uniform01's value of the same draw.
    const u64 bits = rng() >> 11;
    return bits < zero.threshold(ps)
               ? 0
               : sample_poisson_from_first(
                     rng, rate * t.micros(),
                     static_cast<double>(bits) * 0x1.0p-53);
  }

  /// The summed delays of `events` common interference events.
  Duration common_delays(Xoshiro256& rng, u64 events) const;
  /// The summed delays of `events` rare stalls, each capped.
  Duration rare_delays(Xoshiro256& rng, u64 events) const;

  NoiseConfig config_{};
  PoissonZeroTest common_zero_;
  PoissonZeroTest rare_zero_;
};

}  // namespace vfpga::sim
