// Latency sample sets with exact percentiles.
//
// The paper reports mean, standard deviation (Figs. 4-5 error bars) and
// p95/p99/p99.9 tail latencies (Table I) over 50,000 packets per point.
// Samples are stored exactly (50 k × 8 B is nothing) so percentiles are
// exact order statistics, not sketch approximations.
#pragma once

#include <vector>

#include "vfpga/sim/time.hpp"

namespace vfpga::stats {

class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::size_t reserve) { values_us_.reserve(reserve); }

  void add(sim::Duration d) {
    values_us_.push_back(d.micros());
    sorted_ = false;
  }
  void add_us(double us) {
    values_us_.push_back(us);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return values_us_.size(); }
  [[nodiscard]] bool empty() const { return values_us_.empty(); }

  /// Mean in microseconds.
  [[nodiscard]] double mean() const;
  /// Sample standard deviation (n-1) in microseconds.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Exact percentile (nearest-rank, q in [0,100]).
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& values_us() const {
    return values_us_;
  }

  /// Merge another set into this one.
  void merge(const SampleSet& other);

 private:
  void ensure_sorted() const;

  std::vector<double> values_us_;
  mutable std::vector<double> sorted_values_;
  mutable bool sorted_ = false;
};

/// The summary row a bench prints for one (driver, payload) cell.
struct LatencySummary {
  double mean_us = 0;
  double stddev_us = 0;
  double min_us = 0;
  double median_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;

  static LatencySummary from(const SampleSet& samples);
};

}  // namespace vfpga::stats
