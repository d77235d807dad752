// Hardware performance counters.
//
// The paper instruments both FPGA designs with a fixed bank of free-
// running cycle counters that timestamp events (notification received,
// DMA issued, DMA complete, interrupt sent); intervals between captured
// timestamps are read out by the host and have the clock's resolution
// (8 ns at 125 MHz). The model reproduces the quantization: a captured
// timestamp is the value of a cycle counter, i.e. sim-time truncated to
// whole cycles, so measured intervals carry the same ±1-cycle error a
// real counter pair does. Besides one register per event, the bank keeps
// the last kHistoryDepth captures, as an ILA trigger window does.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "vfpga/fpga/clock.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::fpga {

/// Every event the model captures. The c2h_ block mirrors the h2c_ block.
enum class CounterEvent : u8 {
  kNotify, kIrqSent, kUlStart, kUlDone,
  kH2cRun, kH2cError, kH2cDescDecoded,
  kH2cComplete, kH2cIssue, kH2cTransferDone,
  kC2hRun, kC2hError, kC2hDescDecoded,
  kC2hComplete, kC2hIssue, kC2hTransferDone,
};
inline constexpr std::size_t kCounterEvents =
    static_cast<std::size_t>(CounterEvent::kC2hTransferDone) + 1;

/// Event names, indexed by CounterEvent.
inline constexpr auto kCounterEventNames = std::to_array<const char*>(
    {"notify", "irq_sent", "ul_start", "ul_done",
     "h2c_run", "h2c_error", "h2c_desc_decoded",
     "h2c_complete", "h2c_issue", "h2c_transfer_done",
     "c2h_run", "c2h_error", "c2h_desc_decoded",
     "c2h_complete", "c2h_issue", "c2h_transfer_done"});
static_assert(kCounterEventNames.size() == kCounterEvents);

[[nodiscard]] constexpr const char* counter_event_name(CounterEvent event) {
  return kCounterEventNames[static_cast<std::size_t>(event)];
}

/// The c2h_ event at the same place in its block as h2c_ event `event`.
[[nodiscard]] constexpr CounterEvent c2h_twin(CounterEvent event) {
  return static_cast<CounterEvent>(
      static_cast<u8>(event) + static_cast<u8>(CounterEvent::kC2hRun) -
      static_cast<u8>(CounterEvent::kH2cRun));
}

/// Names an event by id, or by a string literal that is looked up while
/// compiling: `interval("notify", "irq_sent")` does no lookup at run time,
/// and a misspelt name does not build.
struct CounterEventRef {
  constexpr CounterEventRef(CounterEvent e) : event(e) {}
  consteval CounterEventRef(const char* name) : event(lookup(name)) {}

  CounterEvent event;

 private:
  static consteval CounterEvent lookup(const char* name) {
    for (std::size_t id = 0;; ++id) {
      // Past the table at() throws, which is not a constant expression.
      const char* entry = kCounterEventNames.at(id);
      std::size_t i = 0;
      while (entry[i] != '\0' && entry[i] == name[i]) {
        ++i;
      }
      if (entry[i] == name[i]) {
        return static_cast<CounterEvent>(id);
      }
    }
  }
};

class PerfCounterBank {
 public:
  /// Captures the window keeps: eight VirtIO round trips.
  static constexpr std::size_t kHistoryDepth = 64;

  struct Capture {
    CounterEvent event;
    u64 cycle;
  };

  explicit PerfCounterBank(ClockDomain clock = kUserClock) : clock_(clock) {}

  /// Capture `event` at simulation time `at` (quantized to cycles).
  void capture(CounterEvent event, sim::SimTime at);

  /// Cycle count captured for `event` (latest capture wins).
  [[nodiscard]] std::optional<u64> cycles(CounterEventRef event) const;

  /// Interval between two captured events, in simulated time, quantized
  /// to the counter resolution. `from` must have been captured no later
  /// than `to`.
  [[nodiscard]] sim::Duration interval(CounterEventRef from,
                                       CounterEventRef to) const;

  /// The last kHistoryDepth captures, oldest first (diagnostics). The
  /// view is stale after the next capture.
  [[nodiscard]] std::span<const Capture> history() const {
    return std::span{window_}.subspan(next_ + kHistoryDepth - size_, size_);
  }

  [[nodiscard]] ClockDomain clock() const { return clock_; }

  /// Snapshot/restore: a u32 mask of the captured events, then their
  /// cycles in id order. The window is a diagnostic trace, not device
  /// state: it is not written, and a restore starts it empty.
  void transfer(migrate::StateIo& io);

 private:
  ClockDomain clock_;
  u32 captured_ = 0;  ///< bit i set: latest_[i] holds a capture
  std::array<u64, kCounterEvents> latest_{};
  /// Each capture is written at its slot and again kHistoryDepth later,
  /// so the window is the contiguous run ending before next_ + depth.
  std::array<Capture, 2 * kHistoryDepth> window_{};
  std::size_t next_ = 0;  ///< slot of the next capture
  std::size_t size_ = 0;  ///< captures in the window
};

}  // namespace vfpga::fpga
