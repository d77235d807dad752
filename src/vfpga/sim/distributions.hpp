// Sampling distributions used by the latency/noise models.
//
// Implemented directly (not via <random> distributions), because std::
// distributions are allowed to differ between implementations, which
// would make "same seed, same results" false on another toolchain. The
// sampled sequences are a function of the seed and of libm's log, exp,
// cos, log1p and pow: bit-identical on any C++ standard library whose
// libm returns what glibc's does (the goldens assume cos, log and exp
// within 1 ulp; see DESIGN.md).
#pragma once

#include <optional>

#include "vfpga/common/contract.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {

/// Standard normal via Box–Muller (the non-caching variant: one sample
/// per call keeps the generator state a pure function of call count).
double sample_standard_normal(Xoshiro256& rng);

/// Lognormal with parameters given as the *median* (exp(mu)) and sigma —
/// medians are how latency segments are naturally calibrated.
double sample_lognormal(Xoshiro256& rng, double median, double sigma);

/// Exponential with the given mean.
double sample_exponential(Xoshiro256& rng, double mean);

/// Pareto (Lomax) with scale and shape; heavy tail for rare OS stalls.
double sample_pareto(Xoshiro256& rng, double scale, double shape);

/// Bernoulli trial.
bool sample_bernoulli(Xoshiro256& rng, double p);

/// A first uniform draw below this decides a zero Poisson count without
/// computing exp(-mean): exp(-m) >= 1 - m for every m, and the 2^-48
/// margin covers the subtraction's rounding and exp's <= 1 ulp error.
constexpr double poisson_zero_cutoff(double mean) {
  return 1.0 - mean - 0x1p-48;
}

/// sample_poisson's inversion loop for 0 < mean < 30, after a first
/// draw `first` at or above the zero cutoff.
u64 sample_poisson_rest(Xoshiro256& rng, double mean, double first);

/// sample_poisson's normal approximation, for means of 30 and above.
u64 sample_poisson_normal(Xoshiro256& rng, double mean);

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
  const double first = rng.uniform01();
  if (first < poisson_zero_cutoff(mean)) {
    return 0;
  }
  return sample_poisson_rest(rng, mean, first);
}

/// cos(2.0 * pi * u) for u in [0, 1], the angle Box–Muller draws: the
/// nearest of 256 table angles, then short polynomials on the remainder
/// (|t| <= pi/256). Within 2^-50 of libm's cos of the same double
/// (FastCos.WithinBoundOfLibm); JitteredSegment's guard allows 2^-48.
double fast_cos_2pi(double u);

/// A latency segment: median duration with multiplicative lognormal
/// jitter, clamped to [floor, ceiling]. This is the basic unit of the
/// software cost model: e.g. "UDP TX stack traversal: median 2.6 us,
/// sigma 0.2".
///
/// sample() returns exactly from_nanos(clamp(sample_lognormal(...))) for
/// the same draws. It evaluates the lognormal with fast_cos_2pi instead
/// of std::cos, bounds how far that can move the nanoseconds from the
/// libm chain, and keeps the result only when the whole interval rounds
/// to one picosecond count; otherwise it recomputes with std::cos from
/// the same two uniforms (DESIGN.md states the error budget).
struct JitteredSegment {
  Duration median{};
  double sigma = 0.0;       ///< lognormal sigma; 0 disables jitter
  Duration floor{};         ///< hard lower bound (code path minimum)
  Duration ceiling{};       ///< hard upper bound; 0 = unbounded

  [[nodiscard]] Duration sample(Xoshiro256& rng) const;

  /// What sample() returns for its Box–Muller uniforms `u1` (already
  /// kept at or above 1e-300) and `u2`, for a positive median and sigma.
  [[nodiscard]] Duration from_uniforms(double u1, double u2) const;

  /// from_uniforms' table-cosine path: nullopt when its rounding guard
  /// cannot prove the libm chain rounds to the same picoseconds.
  [[nodiscard]] std::optional<Duration> fast_from_uniforms(double u1,
                                                           double u2) const;
};

/// Discrete mixture of jittered segments with weights; models multi-modal
/// costs such as scheduler wake-ups (fast path / C1 exit / deep C-state).
struct MixtureSegment {
  struct Component {
    double weight = 0.0;
    JitteredSegment segment;
  };
  std::vector<Component> components;

  [[nodiscard]] Duration sample(Xoshiro256& rng) const;
};

}  // namespace vfpga::sim
