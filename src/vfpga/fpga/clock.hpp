// FPGA clock domain.
//
// Both test designs run user logic at 125 MHz (8 ns per cycle) — the
// paper's hardware performance counters therefore have 8 ns resolution.
// All FPGA-side work in the models is expressed in cycles and converted
// through this type so no module hard-codes the period. The period is
// computed once, at construction: cycle conversions run on every counter
// capture and every FSM stage charge.
#pragma once

#include "vfpga/sim/time.hpp"

namespace vfpga::fpga {

class ClockDomain {
 public:
  constexpr explicit ClockDomain(u64 frequency_hz)
      : freq_hz_(frequency_hz),
        period_ps_(static_cast<i64>(1'000'000'000'000ull / frequency_hz)) {}

  [[nodiscard]] constexpr u64 frequency_hz() const { return freq_hz_; }

  [[nodiscard]] constexpr sim::Duration period() const {
    return sim::Duration{period_ps_};
  }

  [[nodiscard]] constexpr sim::Duration cycles(u64 n) const {
    return sim::Duration{period_ps_ * static_cast<i64>(n)};
  }

  /// Cycles elapsed in `d`, truncated — how a free-running counter
  /// samples an interval.
  [[nodiscard]] constexpr u64 cycles_in(sim::Duration d) const {
    return static_cast<u64>(d.picos() / period_ps_);
  }

 private:
  u64 freq_hz_;
  i64 period_ps_;  ///< whole picoseconds per cycle
};

/// The 125 MHz user-logic clock of the paper's designs.
inline constexpr ClockDomain kUserClock{125'000'000};

}  // namespace vfpga::fpga
