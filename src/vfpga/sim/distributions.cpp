#include "vfpga/sim/distributions.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <utility>

namespace vfpga::sim {
namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

// fast_cos_2pi's knots sit at j * pi/128. kStepHi is pi/128 with its low
// 9 significand bits cleared, so j * kStepHi is exact for j <= 256;
// kStepLo carries the rest, including pi's own bits below the double.
constexpr double kStepHi = std::bit_cast<double>(
    std::bit_cast<u64>(std::numbers::pi / 128) & ~u64{0x1ff});
constexpr double kPiLo = 0x1.1a62633145c07p-53;  // pi - std::numbers::pi
constexpr double kStepLo = (std::numbers::pi / 128 - kStepHi) + kPiLo / 128;

/// The bound on |fast_cos_2pi - std::cos| the rounding guard assumes: 4
/// times the 2^-50 that FastCos.WithinBoundOfLibm checks.
constexpr double kFastCosBound = 0x1p-48;

struct Knot {
  double cos = 0.0;
  double sin = 0.0;
};

const std::array<Knot, 256>& cos_knots() {
  // Built on first use, so no static initialiser in another file can see
  // it unfilled; read-only afterwards, so threads share it.
  static const std::array<Knot, 256> knots = [] {
    std::array<Knot, 256> k{};
    for (std::size_t j = 0; j < k.size(); ++j) {
      const long double theta = static_cast<long double>(j) *
                                (std::numbers::pi_v<long double> / 128);
      k[j] = {static_cast<double>(std::cos(theta)),
              static_cast<double>(std::sin(theta))};
    }
    return k;
  }();
  return knots;
}

// fast_cos_2pi's body, for u in [0, 1].
inline double table_cos_2pi(double u) {
  // The nearest knot comes from u itself, so no quadrant logic is
  // needed: adding 1.5 * 2^52 rounds u * 256 (exact) to an integer j and
  // leaves j in the low significand bits. x - j * kStepHi is exact
  // (Sterbenz), so the remainder t is within an ulp or so of
  // x - j * pi/128.
  constexpr double kRound = 0x1.8p52;
  const double shifted = u * 256.0 + kRound;
  const double jd = shifted - kRound;
  const double x = kTwoPi * u;
  const double t = (x - jd * kStepHi) - jd * kStepLo;
  const Knot& k = cos_knots()[std::bit_cast<u64>(shifted) & 255];
  // 1 - cos t and t - sin t, each truncated below t^8/8! < 2^-66, with
  // the powers of t formed side by side to keep the chains short.
  const double t2 = t * t;
  const double t4 = t2 * t2;
  const double one_minus_cos =
      t2 * 0.5 - t4 * (1.0 / 24 - t2 * (1.0 / 720));
  const double t_minus_sin =
      t * t2 * ((1.0 / 6 - t2 * (1.0 / 120)) + t4 * (1.0 / 5040));
  // cos(theta + t) = (cos theta - sin theta * t)
  //                  - (cos theta (1 - cos t) - sin theta (t - sin t)).
  return (k.cos - k.sin * t) -
         (k.cos * one_minus_cos - k.sin * t_minus_sin);
}

// Box–Muller's two uniforms, in draw order; u1 is kept away from 0 to
// avoid log(0).
std::pair<double, double> box_muller_uniforms(Xoshiro256& rng) {
  double u1 = rng.uniform01();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return {u1, rng.uniform01()};
}

// Box–Muller's normal from its two uniforms, as libm evaluates it.
double standard_normal_from(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(kTwoPi * u2);
}

// JitteredSegment's tail: clamp to [floor, ceiling] (an unset bound is
// infinite) and round to picoseconds. Monotone in `ns`.
class Tail {
 public:
  explicit Tail(const JitteredSegment& segment)
      : floor_ns_(segment.floor.picos() > 0 ? segment.floor.nanos()
                                            : -kInfinity),
        ceiling_ns_(segment.ceiling.picos() > 0 ? segment.ceiling.nanos()
                                                : kInfinity) {}

  Duration operator()(double ns) const {
    if (ns < floor_ns_) {
      ns = floor_ns_;
    }
    if (ns > ceiling_ns_) {
      ns = ceiling_ns_;
    }
    return from_nanos(ns);
  }

 private:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  double floor_ns_;
  double ceiling_ns_;
};

// sample_lognormal's chain through the tail, for the same draws.
Duration libm_sample(const JitteredSegment& segment, double u1, double u2) {
  return Tail{segment}(segment.median.nanos() *
                       std::exp(segment.sigma * standard_normal_from(u1, u2)));
}

// table_sample's answer when its rounding guard cannot decide. Samples
// are never negative. (A sentinel rather than std::optional: returning
// the optional through the stack cost a store-forwarding stall a draw.)
constexpr Duration kUndecided{-1};

// libm_sample with the table cosine, or kUndecided when the rounding
// guard cannot prove that libm_sample returns the same.
inline Duration table_sample(const JitteredSegment& segment, double u1,
                             double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double a = segment.sigma * (r * table_cos_2pi(u2));
  const double ns = segment.median.nanos() * std::exp(a);
  if (!std::isfinite(ns)) {
    return kUndecided;
  }
  // How far libm_sample's ns can lie from this one (DESIGN.md): the
  // cosine bound plus both r * cos roundings, times sigma * r; the
  // rounding of exp's argument; exp's ulp on each side, both median
  // products' and the two subtractions below; 1% for second-order terms.
  const double delta = ns *
                       (segment.sigma * r * (kFastCosBound + 0x1p-52) +
                        std::fabs(a) * 0x1p-51 + 0x1p-50) *
                       1.01;
  // The tail is monotone, so when both ends of [ns - delta, ns + delta]
  // give one count, every value inside does too.
  const Tail tail{segment};
  const Duration picos = tail(ns);
  if (tail(ns - delta) != picos || tail(ns + delta) != picos) {
    return kUndecided;
  }
  return picos;
}

// What JitteredSegment::sample returns for its two uniforms.
inline Duration sample_from(const JitteredSegment& segment, double u1,
                            double u2) {
  const Duration fast = table_sample(segment, u1, u2);
  return fast != kUndecided ? fast : libm_sample(segment, u1, u2);
}

}  // namespace

double sample_standard_normal(Xoshiro256& rng) {
  const auto [u1, u2] = box_muller_uniforms(rng);
  return standard_normal_from(u1, u2);
}

double fast_cos_2pi(double u) {
  VFPGA_EXPECTS(u >= 0.0 && u <= 1.0);
  return table_cos_2pi(u);
}

double sample_lognormal(Xoshiro256& rng, double median, double sigma) {
  VFPGA_EXPECTS(median > 0.0 && sigma >= 0.0);
  if (sigma == 0.0) {
    return median;
  }
  return median * std::exp(sigma * sample_standard_normal(rng));
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
  const double limit = std::exp(-mean);
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
  if (median.picos() <= 0) {
    return Duration{};
  }
  VFPGA_EXPECTS(sigma >= 0.0);
  if (sigma == 0.0) {
    return Tail{*this}(median.nanos());
  }
  const auto [u1, u2] = box_muller_uniforms(rng);
  return sample_from(*this, u1, u2);
}

Duration JitteredSegment::from_uniforms(double u1, double u2) const {
  VFPGA_EXPECTS(median.picos() > 0 && sigma > 0.0 && u1 >= 1e-300 &&
                u2 >= 0.0 && u2 <= 1.0);
  return sample_from(*this, u1, u2);
}

std::optional<Duration> JitteredSegment::fast_from_uniforms(double u1,
                                                            double u2) const {
  VFPGA_EXPECTS(median.picos() > 0 && sigma > 0.0 && u1 >= 1e-300 &&
                u2 >= 0.0 && u2 <= 1.0);
  const Duration fast = table_sample(*this, u1, u2);
  return fast != kUndecided ? std::optional<Duration>{fast} : std::nullopt;
}

Duration MixtureSegment::sample(Xoshiro256& rng) const {
  VFPGA_EXPECTS(!components.empty());
  double total = 0.0;
  for (const auto& c : components) {
    total += c.weight;
  }
  VFPGA_EXPECTS(total > 0.0);
  double pick = rng.uniform01() * total;
  for (const auto& c : components) {
    pick -= c.weight;
    if (pick <= 0.0) {
      return c.segment.sample(rng);
    }
  }
  return components.back().segment.sample(rng);
}

}  // namespace vfpga::sim
