// Sampling distributions used by the latency/noise models.
//
// Implemented directly (not via <random> distributions) so that sampled
// sequences are bit-identical across standard libraries — std::
// distributions are allowed to differ between implementations, which
// would make "same seed, same results" false on another toolchain.
#pragma once

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

/// Poisson via inversion for small means, normal approximation above.
u64 sample_poisson(Xoshiro256& rng, double mean);

/// A first uniform draw below this decides a zero Poisson count without
/// computing exp(-mean): exp(-m) >= 1 - m for every m, and the 2^-48
/// margin covers the subtraction's rounding and exp's <= 1 ulp error.
constexpr double poisson_zero_cutoff(double mean) {
  return 1.0 - mean - 0x1p-48;
}

/// A latency segment: median duration with multiplicative lognormal
/// jitter, clamped to [floor, ceiling]. This is the basic unit of the
/// software cost model: e.g. "UDP TX stack traversal: median 2.6 us,
/// sigma 0.2".
struct JitteredSegment {
  Duration median{};
  double sigma = 0.0;       ///< lognormal sigma; 0 disables jitter
  Duration floor{};         ///< hard lower bound (code path minimum)
  Duration ceiling{};       ///< hard upper bound; 0 = unbounded

  [[nodiscard]] Duration sample(Xoshiro256& rng) const;
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
