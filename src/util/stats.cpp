#include "src/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/assertions.hpp"

namespace pmte {

double percentile_sorted(const std::vector<double>& sorted, double q) {
  PMTE_CHECK(!sorted.empty(), "percentile of empty sample");
  PMTE_CHECK(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0.0;
  for (double x : samples) sum += x;
  s.mean = sum / static_cast<double>(samples.size());
  double sq = 0.0;
  for (double x : samples) sq += (x - s.mean) * (x - s.mean);
  s.stddev = samples.size() > 1
                 ? std::sqrt(sq / static_cast<double>(samples.size() - 1))
                 : 0.0;
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  return s;
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto total = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

}  // namespace pmte
