// The transcendental functions the noise samplers draw through: log, exp
// and cos(2πu), owned rather than taken from libm.
//
// IEEE 754 does not require libm's log or exp to be correctly rounded,
// and their last bit differs between implementations and versions. The
// samplers' results therefore pass only through these functions, so a
// sampled sequence is a function of the seed alone. Each function is a
// range reduction, a 256-entry table of committed constant literals
// (fpmath.cpp, printed by fpmath_tables.py) and a short fixed
// polynomial, using only + − × ÷ on doubles and integer operations on
// their bits. The project compiles with -ffp-contract=off, so no FMA
// contraction changes a result either: the same bits on every x86-64
// level and any other IEEE-754 target.
//
// Each is inline, so a sampler's chain is one straight line of
// arithmetic, and each is arranged for a short dependency chain: the
// polynomial terms are formed side by side and summed as a tree, and
// -2 log and scale · e^x + offset fold their factor and offset into the
// terms, so they cost no latency after the last addition. Accuracy
// (FpMath.* tests): log and exp within 2^-50 relative of glibc's over
// the samplers' ranges, cos_2pi within 2^-50 absolute.
#pragma once

#include <array>
#include <bit>
#include <numbers>

#include "vfpga/common/types.hpp"

namespace vfpga::sim::fpmath {
namespace detail {

/// log's knot: the doubles nearest 1/c and log c for the interval's
/// centre c, or c = 1 for the two intervals next to 1.
struct LogKnot {
  double inv_c;
  double log_c;
};

/// exp's knot j: 2^(j/256) = scale · (1 + tail), scale the nearest double.
struct ExpKnot {
  double tail;
  double scale;
};

/// cos_2pi's knot j: cos and sin of j·π/128, each the nearest double.
struct CosKnot {
  double cos;
  double sin;
};

extern const std::array<LogKnot, 256> kLogKnots;
extern const std::array<ExpKnot, 256> kExpKnots;
extern const std::array<CosKnot, 256> kCosKnots;

/// log of 0, a negative number, a subnormal, an infinity or NaN.
double log_special(double x);
/// exp of NaN or of x with |x| > 708.
double exp_special(double x);

// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 42 significant bits, so k · kLn2Hi
// is exact for every binary exponent k.
constexpr double kLn2Hi = 0x1.62e42fefa3800p-1;
constexpr double kLn2Lo = 0x1.ef35793c76730p-45;

// ln 2 / 256 = kLn2HiN + kLn2LoN; kLn2HiN has 35 significant bits, so
// kd · kLn2HiN is exact for |kd| < 2^18, i.e. |x| <= 708.
constexpr double kInvLn2N = 0x1.71547652b82fep+8;  // 256 / ln 2
constexpr double kLn2HiN = 0x1.62e42fefc0000p-9;
constexpr double kLn2LoN = -0x1.c610ca86c3899p-45;

// Adding 1.5 · 2^52 rounds a double of magnitude below 2^51 to an
// integer and leaves that integer in the low significand bits.
constexpr double kRoundShift = 0x1.8p52;

/// kScale · log(x) for a power of two kScale. Every term is formed
/// already scaled, which is exact, so the result has the bits of
/// kScale * log(x) without a multiplication after the last addition.
template <int kScale>
inline double scaled_log(double x) {
  constexpr double s = kScale;
  const u64 ix = std::bit_cast<u64>(x);
  constexpr u64 kMinNormal = 0x0010000000000000;
  constexpr u64 kInfinity = 0x7ff0000000000000;
  if (ix - kMinNormal >= kInfinity - kMinNormal) [[unlikely]] {
    return s * log_special(x);
  }
  // x = 2^k · z with z in [0.6875, 1.375) (glibc's offset trick): the
  // bits from 0.6875 up give k above and the knot index i below. Knot i
  // covers 2^44 significand steps of z, 2^-9 below 1 and 2^-8 above.
  constexpr u64 kOffset = 0x3fe6000000000000;
  const u64 tmp = ix - kOffset;
  const u64 i = (tmp >> 44) & 255;
  const LogKnot& knot = kLogKnots[i];
  const double k = static_cast<double>(static_cast<i64>(tmp) >> 52);
  const u64 iz = ix - (tmp & (u64{0xfff} << 52));
  // c is the interval's centre, formed from z's bits rather than loaded,
  // except that the two intervals next to 1 (knots 159 and 160) use c = 1.
  constexpr u64 kOne = 0x3ff0000000000000;
  constexpr u64 kKnotMask = (u64{1} << 44) - 1;
  const u64 ic = i - 159 < 2 ? kOne : (iz & ~kKnotMask) | (u64{1} << 43);
  // log x = k ln2 + log c + log1p(r), r = (z - c)/c with |r| < 2^-8.
  // z - c is exact (Sterbenz); next to 1, r = z - 1 exactly.
  const double r = (std::bit_cast<double>(iz) - std::bit_cast<double>(ic)) *
                   knot.inv_c;
  // Everything from here on is times s. w + w_lo = k · kLn2Hi + log c
  // and hi + e = w + r, both by Fast2Sum: |k · kLn2Hi| >= ln 2 > |log c|
  // unless k = 0, and |log c| > |r| unless c = 1, where w = 0.
  const double rs = r * s;
  const double k_ln2 = k * (kLn2Hi * s);
  const double log_c = knot.log_c * s;
  const double w = k_ln2 + log_c;
  const double w_lo = (k_ln2 - w) + log_c;
  const double hi = w + rs;
  const double e = (w - hi) + rs;
  // log1p(r) - r by its Taylor series to r^7 (the rest is below
  // |r| · 2^-59), with s folded into the coefficients and each power of
  // r formed in at most three products; the small terms are summed as a
  // tree and hi is added last.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double p23 = r2 * (-0.5 * s + r * ((1.0 / 3) * s));
  const double p45 = r4 * (-0.25 * s + r * (0.2 * s));
  const double p6 = (r2 * ((-1.0 / 6) * s)) * r4;
  const double p7 = ((r * ((1.0 / 7) * s)) * r2) * r4;
  const double small = w_lo + k * (kLn2Lo * s);
  return hi + (((p23 + small) + (e + p45)) + (p6 + p7));
}

}  // namespace detail

/// Natural logarithm, within 2^-50 relative of glibc's. Out-of-line
/// for arguments that are not positive normal numbers.
inline double log(double x) { return detail::scaled_log<1>(x); }

/// -2 log x, Box–Muller's squared radius: the bits of -2.0 * log(x),
/// with the factor folded into the terms.
inline double minus_two_log(double x) { return detail::scaled_log<-2>(x); }

/// scale · e^x + offset, for a finite scale >= 0: scale multiplies the
/// table knot before the polynomial's terms are formed and offset joins
/// their sum, so neither adds latency after the last addition. Within
/// 2^-50 relative of scale · glibc's exp(x), plus offset's own rounding.
/// Out-of-line for |x| > 708: e^x is +inf above 709.78, 0 below -745.13,
/// and exp(x/2)^2 between.
inline double scaled_exp(double x, double scale, double offset) {
  if (!(x <= 708.0 && x >= -708.0)) [[unlikely]] {
    return scale * detail::exp_special(x) + offset;
  }
  // x = (256 e + j) ln2/256 + r with |r| <= ln2/512: kd = 256 e + j is
  // x · 256/ln2 rounded. r = r1 - d with r1 = x - kd · kLn2HiN exact and
  // |d| = |kd · kLn2LoN| < 2^-26; the polynomial runs on r1 so that it
  // need not wait for d.
  const double shifted = x * detail::kInvLn2N + detail::kRoundShift;
  const u64 ki = std::bit_cast<u64>(shifted);
  const double kd = shifted - detail::kRoundShift;
  const double r1 = x - kd * detail::kLn2HiN;
  const double d = kd * detail::kLn2LoN;
  const detail::ExpKnot& knot = detail::kExpKnots[ki & 255];
  // S = scale · 2^e · knot.scale, with 2^e built from its exponent field:
  // (ki >> 8) << 52 is e modulo 2^12 there, and |e| <= 1021 keeps it
  // normal. scale · 2^e is exact unless the result over- or underflows.
  const double two_e = std::bit_cast<double>(
      ((ki >> 8) << 52) + std::bit_cast<u64>(1.0));
  const double big_s = (scale * two_e) * knot.scale;
  // e^x = S (1 + tail) e^r / scale, and (1 + tail) e^r - 1 is
  // q = tail + r + r²/2 + ... + r^5/120 (the rest is below 2^-66). In
  // r1 and d, to terms of 2^-60:
  //   tail + r + r²/2 = r1 (1 - d) + (tail - d + d²/2) + r1²/2,
  //   r³/6 = r1³/6 - r1² d/2, r^4/24 + r^5/120 = r1^4/24 + r1^5/120,
  // with d = kd · kLn2LoN folded into constants times kd.
  const double r2 = r1 * r1;
  const double q1 =
      r1 * (1.0 - d) +
      (knot.tail + kd * (kd * (0.5 * detail::kLn2LoN * detail::kLn2LoN) -
                         detail::kLn2LoN));
  const double q23 =
      r2 * ((0.5 - kd * (0.5 * detail::kLn2LoN)) + r1 * (1.0 / 6));
  const double q45 = (r2 * r2) * (1.0 / 24 + r1 * (1.0 / 120));
  return (big_s + offset) + big_s * ((q1 + q23) + q45);
}

/// e^x, within 2^-50 relative of glibc's.
inline double exp(double x) { return scaled_exp(x, 1.0, -0.0); }

/// cos(2π·u) for u in [0, 1], within 2^-50 absolute of libm's cos of
/// the same double: the nearest of 256 knots j·π/128, picked from u
/// itself (no quadrant logic), then short polynomials in the remainder
/// |t| <= π/256.
inline double cos_2pi(double u) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  // The knots' spacing π/128 = kStepHi + kStepLo: kStepHi has its low 9
  // significand bits clear, so j · kStepHi is exact for j <= 256;
  // kStepLo carries the rest, including π's own bits below the double.
  constexpr double kStepHi = std::bit_cast<double>(
      std::bit_cast<u64>(std::numbers::pi / 128) & ~u64{0x1ff});
  constexpr double kPiLo = 0x1.1a62633145c07p-53;  // π - std::numbers::pi
  constexpr double kStepLo = (std::numbers::pi / 128 - kStepHi) + kPiLo / 128;
  // Adding kRoundShift rounds u · 256 (exact) to the knot j and leaves
  // j in the low bits. x - j · kStepHi is exact (Sterbenz), so t is
  // within an ulp or so of x - j · π/128.
  const double shifted = u * 256.0 + detail::kRoundShift;
  const double jd = shifted - detail::kRoundShift;
  const double x = kTwoPi * u;
  const double t = (x - jd * kStepHi) - jd * kStepLo;
  const detail::CosKnot& k =
      detail::kCosKnots[std::bit_cast<u64>(shifted) & 255];
  // 1 - cos t and t - sin t, each truncated below t^8/8! < 2^-66, with
  // the powers of t formed side by side to keep the chains short.
  const double t2 = t * t;
  const double t4 = t2 * t2;
  const double one_minus_cos =
      t2 * 0.5 - t4 * (1.0 / 24 - t2 * (1.0 / 720));
  const double t_minus_sin =
      t * t2 * ((1.0 / 6 - t2 * (1.0 / 120)) + t4 * (1.0 / 5040));
  // cos(θ + t) = (cos θ - sin θ · t)
  //              - (cos θ (1 - cos t) - sin θ (t - sin t)).
  return (k.cos - k.sin * t) -
         (k.cos * one_minus_cos - k.sin * t_minus_sin);
}

}  // namespace vfpga::sim::fpmath
