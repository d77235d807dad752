#include "vfpga/sim/noise.hpp"

#include <algorithm>

namespace vfpga::sim {

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
