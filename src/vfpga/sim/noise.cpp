#include "vfpga/sim/noise.hpp"

#include <algorithm>
#include <cmath>

namespace vfpga::sim {

PoissonZeroTest::PoissonZeroTest(double rate_per_us) {
  if (!(rate_per_us >= 0x1p-900 && rate_per_us < 0x1p19)) {
    return;  // NaN fails too
  }
  if (rate_per_us < 0x1p-60) {
    slope_ = 1;  // rate·2^53/10^6 < 2^-27
  } else {
    // rate·2^53 = mant·2^exp exactly, with -59 ≤ exp ≤ 19, so the
    // quotient mant·2^exp·(2^40+1) / (10^6·2^40) is rounded up in 128-bit
    // integers: the numerator stays below 2^113, the divisor below 2^119.
    int exp = 0;
    const auto mant =
        static_cast<u64>(std::ldexp(std::frexp(rate_per_us, &exp), 53));
    using u128 = unsigned __int128;
    u128 num = u128{mant} * ((u64{1} << 40) + 1);
    u128 den = u128{1'000'000} << 40;
    if (exp >= 0) {
      num <<= exp;
    } else {
      den <<= -exp;
    }
    slope_ = static_cast<u64>((num + den - 1) / den);
  }
  max_picos_ = static_cast<i64>(kZeroBelow / slope_);  // ≥ 1: k < 2^52.1
}

Duration NoiseModel::common_delays(Xoshiro256& rng, u64 events) const {
  double extra_ns = 0.0;
  for (u64 i = 0; i < events; ++i) {
    extra_ns += sample_exponential(rng, config_.common_mean_ns);
  }
  return from_nanos(extra_ns);
}

Duration NoiseModel::rare_delays(Xoshiro256& rng, u64 events) const {
  double extra_ns = 0.0;
  for (u64 i = 0; i < events; ++i) {
    double stall = config_.rare_offset_ns +
                   sample_pareto(rng, config_.rare_pareto_scale_ns,
                                 config_.rare_pareto_shape);
    stall = std::min(stall, config_.rare_cap_ns);
    extra_ns += stall;
  }
  return from_nanos(extra_ns);
}

}  // namespace vfpga::sim
