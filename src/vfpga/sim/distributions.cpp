#include "vfpga/sim/distributions.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "vfpga/sim/fpmath.hpp"

namespace vfpga::sim {
namespace {

// Box–Muller's two uniforms, in draw order; u1 is kept away from 0 to
// avoid log(0).
inline std::pair<double, double> box_muller_uniforms(Xoshiro256& rng) {
  double u1 = rng.uniform01();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return {u1, rng.uniform01()};
}

// Box–Muller's radius sqrt(-2 log u1).
inline double box_muller_radius(double u1) {
  return std::sqrt(fpmath::minus_two_log(u1));
}

}  // namespace

double sample_standard_normal(Xoshiro256& rng) {
  const auto [u1, u2] = box_muller_uniforms(rng);
  return box_muller_radius(u1) * fpmath::cos_2pi(u2);
}

double sample_exponential(Xoshiro256& rng, double mean) {
  VFPGA_EXPECTS(mean > 0.0);
  double u = rng.uniform01();
  if (u >= 1.0) {
    u = std::nextafter(1.0, 0.0);
  }
  return -mean * std::log1p(-u);
}

double sample_pareto(Xoshiro256& rng, double scale, double shape) {
  VFPGA_EXPECTS(scale > 0.0 && shape > 0.0);
  double u = rng.uniform01();
  if (u >= 1.0) {
    u = std::nextafter(1.0, 0.0);
  }
  return scale * (std::pow(1.0 - u, -1.0 / shape) - 1.0);
}

bool sample_bernoulli(Xoshiro256& rng, double p) {
  return rng.uniform01() < p;
}

u64 sample_poisson_rest(Xoshiro256& rng, double mean, double first) {
  // Knuth's inversion by multiplication. The count is zero exactly when
  // the first draw is <= exp(-mean), which sample_poisson's cutoff mostly
  // decides without the exp. exp draws nothing, so the stream is the one
  // the plain loop consumes.
  const double limit = fpmath::exp(-mean);
  double product = first;
  u64 count = 0;
  while (product > limit) {
    product *= rng.uniform01();
    ++count;
  }
  return count;
}

u64 sample_poisson_normal(Xoshiro256& rng, double mean) {
  // Normal approximation with continuity correction; fine for the noise
  // model's rates, which never approach this branch in practice.
  const double g = sample_standard_normal(rng);
  const double v = mean + std::sqrt(mean) * g + 0.5;
  return v <= 0.0 ? 0 : static_cast<u64>(v);
}

Duration JitteredSegment::sample(Xoshiro256& rng) const {
  const i64 median_ps = median.picos();
  if (median_ps <= 0) {
    return Duration{};
  }
  VFPGA_EXPECTS(sigma >= 0.0);
  i64 ps = median_ps;
  if (sigma != 0.0) {
    const auto [u1, u2] = box_muller_uniforms(rng);
    // median · e^a + 0.5 in picoseconds, then truncated: rounded half up
    // once. a = R · (σ cos) rather than σ · (R cos), so that σ cos is
    // formed while the log runs. A product at or past 2^63 ps (or NaN)
    // saturates instead of reaching the cast.
    const double rounded = fpmath::scaled_exp(
        box_muller_radius(u1) * (sigma * fpmath::cos_2pi(u2)),
        static_cast<double>(median_ps), 0.5);
    ps = rounded < 0x1p63 ? static_cast<i64>(rounded)
                          : std::numeric_limits<i64>::max();
  }
  // An unset bound is 0; the ceiling wins when the bounds cross.
  if (floor.picos() > 0 && ps < floor.picos()) {
    ps = floor.picos();
  }
  if (ceiling.picos() > 0 && ps > ceiling.picos()) {
    ps = ceiling.picos();
  }
  return Duration{ps};
}

MixtureSegment::MixtureSegment(std::vector<Component> components)
    : components_(std::move(components)) {
  VFPGA_EXPECTS(!components_.empty());
  for (const auto& c : components_) {
    total_ += c.weight;
  }
  VFPGA_EXPECTS(total_ > 0.0);
}

Duration MixtureSegment::sample(Xoshiro256& rng) const {
  double pick = rng.uniform01() * total_;
  for (const auto& c : components_) {
    pick -= c.weight;
    if (pick <= 0.0) {
      return c.segment.sample(rng);
    }
  }
  return components_.back().segment.sample(rng);
}

}  // namespace vfpga::sim
