// Sampling distributions used by the latency/noise models.
//
// Implemented directly (not via <random> distributions), because std::
// distributions are allowed to differ between implementations, which
// would make "same seed, same results" false on another toolchain.
// Box–Muller, the lognormal segments and the Poisson draws evaluate log,
// exp and cos through sim/fpmath, which uses no libm, so their sequences
// are a function of the seed alone. sample_exponential and sample_pareto
// still call libm's log1p and pow: the noise model's delays and flowgen
// are bit-identical only on a libm that returns what glibc's does (see
// DESIGN.md).
#pragma once

#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {

/// Standard normal via Box–Muller (the non-caching variant: one sample
/// per call keeps the generator state a pure function of call count).
double sample_standard_normal(Xoshiro256& rng);

/// Exponential with the given mean.
double sample_exponential(Xoshiro256& rng, double mean);

/// Pareto (Lomax) with scale and shape; heavy tail for rare OS stalls.
double sample_pareto(Xoshiro256& rng, double scale, double shape);

/// Bernoulli trial.
bool sample_bernoulli(Xoshiro256& rng, double p);

/// A first uniform draw below this decides a zero Poisson count without
/// computing exp(-mean): exp(-m) >= 1 - m for every m, and the 2^-48
/// margin covers the subtraction's rounding and fpmath::exp's error
/// (2^-50 relative).
constexpr double poisson_zero_cutoff(double mean) {
  return 1.0 - mean - 0x1p-48;
}

/// sample_poisson's inversion loop for 0 < mean < 30, after a first
/// draw `first` at or above the zero cutoff.
u64 sample_poisson_rest(Xoshiro256& rng, double mean, double first);

/// sample_poisson's normal approximation, for means of 30 and above.
u64 sample_poisson_normal(Xoshiro256& rng, double mean);

/// sample_poisson's count for 0 < mean < 30 after its first uniform
/// draw, `first`, has been taken.
inline u64 sample_poisson_from_first(Xoshiro256& rng, double mean,
                                     double first) {
  if (first < poisson_zero_cutoff(mean)) {
    return 0;
  }
  return sample_poisson_rest(rng, mean, first);
}

/// Poisson via inversion for small means, normal approximation above.
/// The noise model's means are ~1e-3 and below, so nearly every call
/// ends at the first draw; that path is inline.
inline u64 sample_poisson(Xoshiro256& rng, double mean) {
  VFPGA_EXPECTS(mean >= 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean >= 30.0) {
    return sample_poisson_normal(rng, mean);
  }
  return sample_poisson_from_first(rng, mean, rng.uniform01());
}

/// A latency segment: median duration with multiplicative lognormal
/// jitter, clamped to [floor, ceiling]. This is the basic unit of the
/// software cost model: e.g. "UDP TX stack traversal: median 2.6 us,
/// sigma 0.2".
///
/// sample() draws Box–Muller's two uniforms and evaluates in integer
/// picoseconds: median.picos() · exp(sigma · sqrt(-2 log u1) · cos(2π u2))
/// through fpmath, rounded half up to an integer once, then clamped to
/// [floor, ceiling] as integers. A product past the largest Duration
/// saturates before the cast.
struct JitteredSegment {
  Duration median{};
  double sigma = 0.0;       ///< lognormal sigma; 0 disables jitter
  Duration floor{};         ///< hard lower bound (code path minimum)
  Duration ceiling{};       ///< hard upper bound; 0 = unbounded

  [[nodiscard]] Duration sample(Xoshiro256& rng) const;
};

/// Discrete mixture of jittered segments with weights; models multi-modal
/// costs such as scheduler wake-ups (fast path / C1 exit / deep C-state).
/// The weights need not sum to 1: construction sums them once, in
/// component order, and sample() scales its selecting draw by that total.
class MixtureSegment {
 public:
  struct Component {
    double weight = 0.0;
    JitteredSegment segment;
  };

  /// One zero-cost component, the mixture counterpart of a default
  /// JitteredSegment.
  MixtureSegment() : MixtureSegment(std::vector<Component>{{1.0, {}}}) {}
  /// Requires at least one component and a positive weight total.
  explicit MixtureSegment(std::vector<Component> components);

  [[nodiscard]] const std::vector<Component>& components() const {
    return components_;
  }

  [[nodiscard]] Duration sample(Xoshiro256& rng) const;

 private:
  std::vector<Component> components_;
  double total_ = 0.0;
};

}  // namespace vfpga::sim
