#pragma once
// Small statistics helpers used by benches and tests: summary statistics
// (mean / max / percentiles) over samples of distances, stretches, list
// lengths, round counts, …

#include <cstddef>
#include <vector>

namespace pmte {

/// Summary of a sample of doubles.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double stddev = 0.0;
};

/// Compute a Summary. The input is copied and sorted internally.
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Percentile (q in [0,1]) of a sorted sample via linear interpolation.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Incremental mean/max accumulator (Welford) safe to merge across threads.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double variance() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pmte
