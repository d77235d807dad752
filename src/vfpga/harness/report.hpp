// Paper-style table/figure renderers for the reproduction benches.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>

#include "vfpga/harness/experiment.hpp"

namespace vfpga::harness {

/// Fig. 3: round-trip latency distribution summary per payload for both
/// drivers (whisker stats + optional ASCII histograms).
std::string render_fig3(const SweepResult& virtio, const SweepResult& xdma,
                        bool with_histograms);

/// Fig. 4 / Fig. 5: the hardware-vs-software latency breakdown for one
/// driver (mean with standard-deviation "error bars").
std::string render_breakdown_figure(const SweepResult& sweep,
                                    const std::string& title);

/// Table I: tail latencies at 95 / 99 / 99.9 percentiles.
std::string render_table1(const SweepResult& virtio, const SweepResult& xdma);

/// One-line sanity footer: iteration counts, failures, checks.
std::string render_footer(const ExperimentConfig& config,
                          const SweepResult& virtio, const SweepResult& xdma);

/// A JSON document built in a string: objects, arrays and string, bool,
/// integer and double members, two-space indented. The writer places
/// the commas and escapes strings. Doubles are written in the shortest
/// form that reads back to the same value, so no call site picks a
/// precision; NaN and infinities become null.
class Json {
 public:
  /// Opens an object: a member when `key` is given, otherwise the top
  /// level or an array element.
  Json& begin_object(std::string_view key = {});
  Json& end_object();
  Json& begin_array(std::string_view key);
  Json& end_array();

  /// One member: a string, bool, integer or double value.
  template <typename T>
  Json& field(std::string_view key, const T& value) {
    member(key);
    if constexpr (std::is_same_v<T, bool>) {
      out_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      out_ += std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      number(value);
    } else {
      quoted(value);
    }
    return *this;
  }

  /// The document; complete once every begin_* has its end_*.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void member(std::string_view key);
  void number(double value);
  void quoted(std::string_view text);
  Json& open(std::string_view key, char bracket);
  Json& close(char bracket);

  std::string out_;
  int depth_ = 0;
  bool first_ = true;  ///< nothing written yet at the current depth
};

/// Write `text` to `filename` under $VFPGA_JSON_DIR (the current
/// directory when unset) and print `wrote <path>`. Returns false, with a
/// diagnostic on stderr, when the file cannot be written.
bool write_bench_json(const std::string& filename, const std::string& text);

/// The fig3/table1 latency export, BENCH_latency.json: per (driver,
/// payload) cell the distribution summary (mean/stddev/min/p50/p95/p99/
/// p99.9/max) and the hardware/software breakdown means, tagged with the
/// emitting bench. Returns false on I/O failure.
bool write_latency_json(const ExperimentConfig& config,
                        const SweepResult& virtio, const SweepResult& xdma,
                        const std::string& source);

}  // namespace vfpga::harness
