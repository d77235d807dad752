// Reference implementations the library's noise sampling is checked
// against: Box–Muller and the lognormal-to-Duration chain evaluated with
// libm's log, cos and exp, the mixture draw that re-sums its weights on
// every call, and the noise model with its interference and rare-stall
// Poisson draws as two separate calls. Each is the straightforward form,
// independent of the code it checks, so a test can compare Durations and
// generator states draw for draw.
#pragma once

#include <algorithm>
#include <cmath>

#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::noise_oracle {

using sim::Duration;
using sim::Xoshiro256;

inline double sample_standard_normal(Xoshiro256& rng) {
  // Box–Muller; u1 is kept away from 0 to avoid log(0).
  double u1 = rng.uniform01();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = rng.uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

inline double sample_lognormal(Xoshiro256& rng, double median, double sigma) {
  if (sigma == 0.0) {
    return median;
  }
  return median * std::exp(sigma * noise_oracle::sample_standard_normal(rng));
}

/// JitteredSegment::sample through libm's cos.
inline Duration sample(const sim::JitteredSegment& segment, Xoshiro256& rng) {
  const double med_ns = segment.median.nanos();
  if (med_ns <= 0.0) {
    return Duration{};
  }
  double ns = noise_oracle::sample_lognormal(rng, med_ns, segment.sigma);
  if (segment.floor.picos() > 0 && ns < segment.floor.nanos()) {
    ns = segment.floor.nanos();
  }
  if (segment.ceiling.picos() > 0 && ns > segment.ceiling.nanos()) {
    ns = segment.ceiling.nanos();
  }
  return sim::from_nanos(ns);
}

/// MixtureSegment::sample with the weight total summed on every draw.
/// The chosen component samples through the library's JitteredSegment,
/// so only the selection is under test.
inline Duration sample(const sim::MixtureSegment& mixture, Xoshiro256& rng) {
  const auto& components = mixture.components();
  double total = 0.0;
  for (const auto& c : components) {
    total += c.weight;
  }
  double pick = rng.uniform01() * total;
  for (const auto& c : components) {
    pick -= c.weight;
    if (pick <= 0.0) {
      return c.segment.sample(rng);
    }
  }
  return components.back().segment.sample(rng);
}

/// The noise model with every count loop in one function.
class NoiseModel {
 public:
  explicit NoiseModel(sim::NoiseConfig config) : config_(config) {}

  Duration interference(Xoshiro256& rng, Duration software_time) const {
    if (!config_.enabled || software_time <= Duration{}) {
      return Duration{};
    }
    const double us = software_time.micros();
    double extra_ns = 0.0;
    const u64 common =
        sim::sample_poisson(rng, config_.common_rate_per_us * us);
    for (u64 i = 0; i < common; ++i) {
      extra_ns += sim::sample_exponential(rng, config_.common_mean_ns);
    }
    return sim::from_nanos(extra_ns);
  }

  Duration rare_stall(Xoshiro256& rng, Duration elapsed) const {
    if (!config_.enabled || elapsed <= Duration{}) {
      return Duration{};
    }
    const double us = elapsed.micros();
    double extra_ns = 0.0;
    const u64 rare = sim::sample_poisson(rng, config_.rare_rate_per_us * us);
    for (u64 i = 0; i < rare; ++i) {
      double stall = config_.rare_offset_ns +
                     sim::sample_pareto(rng, config_.rare_pareto_scale_ns,
                                        config_.rare_pareto_shape);
      stall = std::min(stall, config_.rare_cap_ns);
      extra_ns += stall;
    }
    return sim::from_nanos(extra_ns);
  }

 private:
  sim::NoiseConfig config_;
};

}  // namespace vfpga::noise_oracle
