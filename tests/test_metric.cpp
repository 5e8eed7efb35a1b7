// Tests for approximate metric construction (Section 6, Theorems 6.1/6.2).
#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/generators.hpp"
#include "src/metric/approx_metric.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

class ApproxMetric : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxMetric, DominatesAndApproximates) {
  Rng rng(GetParam());
  const auto g = make_gnm(50, 120, {1.0, 6.0}, rng);
  ApproxMetricOptions opts;
  opts.eps_hat = 0.1;
  const auto approx = approximate_metric(g, opts, rng);
  const auto exact = exact_apsp(g);
  ASSERT_EQ(approx.dist.size(), exact.size());
  // Never underestimates (H dominates G), bounded overestimation.
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_GE(approx.dist[i], exact[i] - 1e-9);
  }
  const double stretch = metric_stretch(approx.dist, exact);
  // (1+ε̂)^{Λ+1} with Λ ≤ ~2·log2 n: generous non-flaky envelope.
  const double envelope = std::pow(1.1, 2.0 * std::log2(50.0) + 1.0);
  EXPECT_LE(stretch, envelope);
  EXPECT_GT(approx.h_iterations, 0U);
  EXPECT_GT(approx.work, 0U);
}

TEST_P(ApproxMetric, SmallEpsTightens) {
  Rng rng(GetParam() + 10);
  const auto g = make_grid(7, 7, {1.0, 3.0}, rng);
  const auto exact = exact_apsp(g);
  ApproxMetricOptions tight;
  tight.eps_hat = 0.01;
  Rng r1(GetParam() + 11);
  const auto a = approximate_metric(g, tight, r1);
  const double s_tight = metric_stretch(a.dist, exact);
  EXPECT_LE(s_tight, 1.35);  // (1.01)^{Λ+1} stays close to 1
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxMetric,
                         ::testing::Values(901, 902, 903));

TEST(ApproxMetric, SpannerVariantTradesStretchForSize) {
  Rng rng(42);
  const auto g = make_gnm(60, 400, {1.0, 4.0}, rng);
  ApproxMetricOptions opts;
  opts.eps_hat = 0.05;
  const unsigned k = 2;
  const auto approx = approximate_metric_spanner(g, k, opts, rng);
  const auto exact = exact_apsp(g);
  EXPECT_GT(approx.spanner_edges, 0U);
  EXPECT_LT(approx.spanner_edges, g.num_edges());
  // Stretch ≤ (2k−1)·(1+ε̂)^{O(log n)}.
  const double stretch = metric_stretch(approx.dist, exact);
  const double envelope =
      (2.0 * k - 1.0) * std::pow(1.05, 2.0 * std::log2(60.0) + 1.0);
  EXPECT_LE(stretch, envelope);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_GE(approx.dist[i], exact[i] - 1e-9);
  }
}

TEST(ApproxMetric, DiagonalIsZero) {
  Rng rng(7);
  const auto g = make_path(20);
  ApproxMetricOptions opts;
  const auto approx = approximate_metric(g, opts, rng);
  for (Vertex v = 0; v < 20; ++v) {
    EXPECT_DOUBLE_EQ(approx.dist[static_cast<std::size_t>(v) * 20 + v], 0.0);
  }
}

TEST(ApproxMetric, StretchHelperBasics) {
  EXPECT_DOUBLE_EQ(metric_stretch({2.0, 0.0}, {1.0, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(metric_stretch({1.0}, {1.0}), 1.0);
  EXPECT_THROW((void)metric_stretch({1.0}, {1.0, 2.0}), std::logic_error);
}

}  // namespace
}  // namespace pmte
