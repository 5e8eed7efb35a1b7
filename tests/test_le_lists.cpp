// Tests for LE lists (Section 7.2): pipeline agreement, structural
// invariants, and the O(log n) length bound (Lemma 7.6).
#include <gtest/gtest.h>

#include <cmath>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/mbf_reference.hpp"
#include "tests/support/reference.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

using test::approx_equal;
using test::brute_force_le_lists;
using test::expect_valid_le_lists;

class LePipelines : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph() {
    Rng rng(GetParam());
    return make_gnm(48, 110, {1.0, 6.0}, rng);
  }
};

TEST_P(LePipelines, IterationMatchesBruteForce) {
  const auto g = random_graph();
  Rng rng(GetParam() + 1);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto le = le_lists_iteration(g, order);
  EXPECT_TRUE(le.converged);
  expect_valid_le_lists(le.lists, order);
  const auto brute = brute_force_le_lists(g, order);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(approx_equal(le.lists[v], brute[v])) << "vertex " << v;
  }
}

TEST_P(LePipelines, SequentialMatchesIteration) {
  const auto g = random_graph();
  Rng rng(GetParam() + 2);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto a = le_lists_iteration(g, order);
  const auto b = le_lists_sequential(g, order);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(approx_equal(a.lists[v], b.lists[v])) << "vertex " << v;
  }
}

TEST_P(LePipelines, MetricPipelineMatchesOnCompleteGraph) {
  Rng rng(GetParam() + 3);
  const auto g = make_complete(30, {1.0, 9.0}, rng);
  const auto order = VertexOrder::random(30, rng);
  const auto apsp = exact_apsp(g);
  const auto a = le_lists_from_metric(apsp, order);
  const auto b = le_lists_sequential(g, order);
  for (Vertex v = 0; v < 30; ++v) {
    EXPECT_TRUE(approx_equal(a.lists[v], b.lists[v])) << "vertex " << v;
  }
  EXPECT_EQ(a.iterations, 1U);  // a metric is a graph of SPD 1
}

TEST_P(LePipelines, IterationMatchesReferenceStepper) {
  // The direct pipeline's lists, bit for bit, are those of r^V A applied
  // to every vertex in every round (tests/support/mbf_reference.hpp).
  Rng rng(GetParam() + 4);
  for (const char* family : {"gnm", "grid", "path"}) {
    const auto g = test::support_graph(family, 256, GetParam());
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    const auto le = le_lists_iteration(g, order);
    const auto ref = test::mbf_reference_run(
        g, LeListAlgebra{}, le_initial_state(order), g.num_vertices());
    EXPECT_EQ(le.iterations, ref.iterations) << family;
    EXPECT_EQ(le.converged, ref.reached_fixpoint) << family;
    EXPECT_TRUE(le.lists == ref.states) << family;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LePipelines,
                         ::testing::Values(501, 502, 503, 504, 505, 506));

TEST(LeLists, IterationCountTracksSpd) {
  // On a path graph the fixpoint needs Θ(n) iterations (Section 8.1's
  // weakness that motivates the oracle).
  const auto g = make_path(60);
  Rng rng(1);
  const auto order = VertexOrder::random(60, rng);
  const auto le = le_lists_iteration(g, order);
  EXPECT_TRUE(le.converged);
  EXPECT_GE(le.iterations, 30U);
}

TEST(LeLists, LengthIsLogarithmic) {
  // Lemma 7.6: E[|list|] ≈ H_n ≈ ln n; check the mean over vertices on a
  // few permutations and a generous whp-style max.
  Rng rng(2);
  const Vertex n = 400;
  const auto g = make_gnm(n, 1200, {1.0, 3.0}, rng);
  const double ln_n = std::log(static_cast<double>(n));
  for (int trial = 0; trial < 3; ++trial) {
    const auto order = VertexOrder::random(n, rng);
    const auto le = le_lists_sequential(g, order);
    double total = 0.0;
    std::size_t worst = 0;
    for (const auto& l : le.lists) {
      total += static_cast<double>(l.size());
      worst = std::max(worst, l.size());
    }
    EXPECT_LT(total / n, 3.0 * ln_n);
    EXPECT_LT(static_cast<double>(worst), 8.0 * ln_n);
  }
}

TEST(LeLists, RankZeroListIsSingleton) {
  // The minimum-order vertex dominates everything: its own list is {(0,0)}.
  Rng rng(3);
  const auto g = make_gnm(25, 60, {1.0, 2.0}, rng);
  const auto order = VertexOrder::random(25, rng);
  const auto le = le_lists_sequential(g, order);
  const Vertex lowest = order.vertex_of[0];
  ASSERT_EQ(le.lists[lowest].size(), 1U);
  EXPECT_DOUBLE_EQ(le.lists[lowest].at(0), 0.0);
}

TEST(LeLists, IdentityOrderOnPath) {
  // With the identity order on a path 0-1-2-…, vertex v's list is exactly
  // {(w, v−w) : w ≤ v}: every left vertex is strictly closer than all
  // smaller ids, while every right vertex is dominated (the identity order
  // is the worst case — length Θ(n), unlike random orders, Lemma 7.6).
  const auto g = make_path(10);
  const auto order = VertexOrder::identity(10);
  const auto le = le_lists_sequential(g, order);
  for (Vertex v = 0; v < 10; ++v) {
    ASSERT_EQ(le.lists[v].size(), static_cast<std::size_t>(v) + 1)
        << "vertex " << v;
    for (Vertex w = 0; w <= v; ++w) {
      EXPECT_DOUBLE_EQ(le.lists[v].at(w), static_cast<double>(v - w));
    }
  }
}

TEST(LeLists, OrderSizeMismatchThrows) {
  const auto g = make_path(5);
  const auto order = VertexOrder::identity(4);
  EXPECT_THROW((void)le_lists_iteration(g, order), std::logic_error);
  EXPECT_THROW((void)le_lists_sequential(g, order), std::logic_error);
}

}  // namespace
}  // namespace pmte
