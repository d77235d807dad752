#include "vfpga/fpga/perf_counter.hpp"

#include <algorithm>

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::fpga {

void PerfCounterBank::capture(CounterEvent event, sim::SimTime at) {
  VFPGA_EXPECTS(at.picos() >= 0);
  const u64 cycle = clock_.cycles_in(at - sim::SimTime{});
  const auto id = static_cast<std::size_t>(event);
  latest_[id] = cycle;
  captured_ |= 1u << id;
  // One local for both slots: a chained assignment reloads the first
  // slot as 16 bytes right after its two narrower stores, which stalls
  // store forwarding.
  const Capture entry{event, cycle};
  window_[next_] = entry;
  window_[next_ + kHistoryDepth] = entry;
  next_ = (next_ + 1) % kHistoryDepth;
  size_ = std::min(size_ + 1, kHistoryDepth);
}

std::optional<u64> PerfCounterBank::cycles(CounterEventRef event) const {
  const auto id = static_cast<std::size_t>(event.event);
  if ((captured_ >> id & 1u) == 0) {
    return std::nullopt;
  }
  return latest_[id];
}

sim::Duration PerfCounterBank::interval(CounterEventRef from,
                                        CounterEventRef to) const {
  const auto a = cycles(from);
  const auto b = cycles(to);
  VFPGA_EXPECTS(a.has_value() && b.has_value());
  VFPGA_EXPECTS(*b >= *a);
  return clock_.cycles(*b - *a);
}

void PerfCounterBank::transfer(migrate::StateIo& io) {
  u32 mask = captured_;
  io.u32(mask);
  if (io.loading()) {
    *this = PerfCounterBank{clock_};
    if (mask >> kCounterEvents != 0) {
      io.fail();  // a bit past the last event: not an image of this bank
      return;
    }
    captured_ = mask;
  }
  for (std::size_t id = 0; id < kCounterEvents; ++id) {
    if ((mask >> id & 1u) != 0) {
      io.u64(latest_[id]);
    }
  }
}

}  // namespace vfpga::fpga
