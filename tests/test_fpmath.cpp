// sim/fpmath: accuracy against libm over the samplers' argument ranges,
// the committed tables against long-double libm, and a golden of exact
// result bits (the FpMathGolden suite, which CI also runs at
// -march=x86-64-v3).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <numbers>

#include "vfpga/sim/fpmath.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::sim {
namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

// The largest relative (or, for cos_2pi, absolute) error seen, and where.
struct Worst {
  double error = 0.0;
  double at = 0.0;

  void see(double e, double x) {
    if (e > error) {
      error = e;
      at = x;
    }
  }
};

double relative_error(double got, double want) {
  return std::fabs(got - want) / std::fabs(want);
}

// Calls check(x) for x and the four doubles either side of it.
template <class Check>
void around(double x, Check check) {
  double below = x;
  double above = x;
  for (int k = 0; k < 5; ++k) {
    check(below);
    check(above);
    below = std::nextafter(below, -INFINITY);
    above = std::nextafter(above, INFINITY);
  }
}

// The centre and the start of log's knot interval i, as a z in
// [0.6875, 1.375): 2^-9 wide below 1, 2^-8 above.
double log_knot_start(int i) {
  return i < 160 ? (1.375 + i / 256.0) / 2 : 1.0 + (i - 160) / 256.0;
}
double log_knot_width(int i) { return i < 160 ? 0x1p-9 : 0x1p-8; }

// Box–Muller's u1 is uniform01() on the 2^-53 grid, kept at or above
// 1e-300; the log-uniform half reaches down to that floor.
TEST(FpMath, LogWithinBoundOfLibm) {
  Worst worst;
  const auto check = [&](double x) {
    const double got = fpmath::log(x);
    worst.see(relative_error(got, std::log(x)), x);
    if (fpmath::minus_two_log(x) != -2.0 * got) {
      ADD_FAILURE() << "minus_two_log(" << x << ") is not -2 log";
    }
  };
  Xoshiro256 rng{2024};
  for (int i = 0; i < 5'000'000; ++i) {
    check(rng.uniform01() + 0x1p-53);
    check(std::exp2(-996.0 * rng.uniform01()));
  }
  check(1e-300);
  for (int i = 0; i < 256; ++i) {
    for (const double scale : {0.125, 0.5, 1.0}) {
      const double z = log_knot_start(i);
      if (z * scale < 1.0) {
        around(z * scale, check);
        around((z + log_knot_width(i) / 2) * scale, check);
      }
    }
  }
  EXPECT_LE(worst.error, 0x1p-50) << "at x = " << worst.at;
}

// The lognormal's exponent σ·R·cos stays within ±40 for the cost model's
// σ (R <= 37.2), and the Poisson's exp(-mean) takes means below 30.
TEST(FpMath, ExpWithinBoundOfLibm) {
  Worst worst;
  const auto check = [&](double x) {
    worst.see(relative_error(fpmath::exp(x), std::exp(x)), x);
  };
  Xoshiro256 rng{2025};
  for (int i = 0; i < 10'000'000; ++i) {
    check(90.0 * rng.uniform01() - 45.0);
  }
  // Each knot k·ln2/256 and each point where the rounded knot changes.
  constexpr double kStep = std::numbers::ln2 / 256;
  for (int k = -16'640; k <= 16'640; ++k) {
    around(k * kStep, check);
    around((k + 0.5) * kStep, check);
  }
  EXPECT_LE(worst.error, 0x1p-50) << "at x = " << worst.at;
}

// JitteredSegment's use: median picoseconds · e^a + 0.5, against the
// long-double value.
TEST(FpMath, ScaledExpWithinBoundOfLongDouble) {
  Worst worst;
  Xoshiro256 rng{2026};
  for (int i = 0; i < 2'000'000; ++i) {
    const double x = 90.0 * rng.uniform01() - 45.0;
    const double scale = std::floor(std::exp2(40.0 * rng.uniform01()));
    const long double want =
        static_cast<long double>(scale) * std::exp(static_cast<long double>(x)) +
        0.5L;
    const long double got = fpmath::scaled_exp(x, scale, 0.5);
    worst.see(static_cast<double>(std::fabs((got - want) / want)), x);
  }
  EXPECT_LE(worst.error, 0x1p-50) << "at x = " << worst.at;
}

TEST(FpMath, CosWithinBoundOfLibm) {
  Worst worst;
  const auto check = [&](double u) {
    worst.see(std::fabs(fpmath::cos_2pi(u) - std::cos(kTwoPi * u)), u);
  };
  Xoshiro256 rng{2024};
  for (int i = 0; i < 10'000'000; ++i) {
    check(rng.uniform01());
  }
  // Each knot and each midpoint between knots (the largest remainder),
  // a few ulps either side, within [0, 1].
  for (int half_steps = 0; half_steps <= 512; ++half_steps) {
    around(half_steps / 512.0, [&](double u) {
      if (u >= 0.0 && u <= 1.0) {
        check(u);
      }
    });
  }
  EXPECT_LE(worst.error, 0x1p-50) << "at u = " << worst.at;
}

TEST(FpMath, SpecialArguments) {
  EXPECT_EQ(fpmath::log(1.0), 0.0);
  EXPECT_EQ(fpmath::log(0.0), -INFINITY);
  EXPECT_TRUE(std::isnan(fpmath::log(-1.0)));
  EXPECT_TRUE(std::isnan(fpmath::log(NAN)));
  EXPECT_EQ(fpmath::log(INFINITY), INFINITY);
  const double subnormal = 0x1p-1060;
  EXPECT_LE(relative_error(fpmath::log(subnormal), std::log(subnormal)),
            0x1p-50);
  EXPECT_EQ(fpmath::exp(0.0), 1.0);
  EXPECT_EQ(fpmath::exp(710.0), INFINITY);
  EXPECT_EQ(fpmath::exp(-746.0), 0.0);
  EXPECT_TRUE(std::isnan(fpmath::exp(NAN)));
  for (const double x : {708.5, 709.7, -708.5, -720.0}) {
    EXPECT_LE(relative_error(fpmath::exp(x), std::exp(x)), 0x1p-49)
        << "x = " << x;
  }
  EXPECT_EQ(fpmath::scaled_exp(800.0, 1e6, 0.5), INFINITY);
  EXPECT_EQ(fpmath::scaled_exp(-800.0, 1e6, 0.5), 0.5);
}

// Each entry is the double nearest its value; long double carries 11
// more bits, so an entry may differ from its rounding by one ulp.
TEST(FpMath, TableEntriesMatchLongDoubleLibm) {
  const auto within_ulp = [](double entry, long double want) {
    const long double ulp = static_cast<long double>(
        std::nextafter(std::fabs(entry), INFINITY) - std::fabs(entry));
    return std::fabs(static_cast<long double>(entry) - want) <=
           std::fmax(ulp, 0x1p-62L);  // the long-double π's own error
  };
  for (std::size_t i = 0; i < 256; ++i) {
    const int n = static_cast<int>(i);
    const long double c =
        i == 159 || i == 160
            ? 1.0L
            : static_cast<long double>(log_knot_start(n)) +
                  static_cast<long double>(log_knot_width(n)) / 2;
    const auto& log_knot = fpmath::detail::kLogKnots[i];
    EXPECT_TRUE(within_ulp(log_knot.inv_c, 1.0L / c)) << "log knot " << i;
    EXPECT_TRUE(within_ulp(log_knot.log_c, std::log(c))) << "log knot " << i;

    const long double power = std::exp2(static_cast<long double>(i) / 256);
    const auto& exp_knot = fpmath::detail::kExpKnots[i];
    EXPECT_TRUE(within_ulp(exp_knot.scale, power)) << "exp knot " << i;
    EXPECT_LE(std::fabs(static_cast<long double>(exp_knot.scale) *
                            (1.0L + static_cast<long double>(exp_knot.tail)) -
                        power),
              0x1p-62L)
        << "exp knot " << i;

    const long double theta =
        static_cast<long double>(i) * (std::numbers::pi_v<long double> / 128);
    const auto& cos_knot = fpmath::detail::kCosKnots[i];
    EXPECT_TRUE(within_ulp(cos_knot.cos, std::cos(theta))) << "cos knot " << i;
    EXPECT_TRUE(within_ulp(cos_knot.sin, std::sin(theta))) << "cos knot " << i;
  }
}

// ---- golden bits -------------------------------------------------------------

// FNV-1a over the results' bit patterns.
class BitsHash {
 public:
  void add(double value) {
    u64 bits = std::bit_cast<u64>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ (bits & 0xff)) * 0x100000001b3ull;
      bits >>= 8;
    }
  }
  [[nodiscard]] u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ull;
};

// Exact results over fixed grids. A change to a polynomial, a table or a
// constant, or a compiler or ISA that evaluates them differently, moves
// these; so does every golden drawn through them.
TEST(FpMathGolden, ExactBitsOverAGrid) {
  EXPECT_EQ(std::bit_cast<u64>(fpmath::log(0.3)), 0xbff34378fcbda721ull);
  EXPECT_EQ(std::bit_cast<u64>(fpmath::exp(-1.25)), 0x3fd25618372a584full);
  EXPECT_EQ(std::bit_cast<u64>(fpmath::cos_2pi(0.1)), 0x3fe9e3779b97f4a8ull);

  BitsHash log_hash;
  BitsHash exp_hash;
  BitsHash scaled_hash;
  BitsHash cos_hash;
  for (int i = 1; i <= 100'000; ++i) {
    log_hash.add(fpmath::log(i * 0x1p-17 + 0x1p-60));
    log_hash.add(fpmath::minus_two_log(std::exp2(-i * 0.00996)));
    const double x = (i - 50'000) * 0.0009;
    exp_hash.add(fpmath::exp(x));
    scaled_hash.add(fpmath::scaled_exp(x, 2'600'000.0 + i, 0.5));
    cos_hash.add(fpmath::cos_2pi(i * 1e-5));
  }
  EXPECT_EQ(log_hash.value(), 0x3104484a2f638c49ull);
  EXPECT_EQ(exp_hash.value(), 0xbf065ce3b321ac77ull);
  EXPECT_EQ(scaled_hash.value(), 0x844cc4bfa5d3708eull);
  EXPECT_EQ(cos_hash.value(), 0x17c60c04141ad79dull);
}

}  // namespace
}  // namespace vfpga::sim
