// Tests for level sampling (Lemma 4.1) and the simulated graph H
// (Definition 4.2, Theorem 4.5).
#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "tests/support/reference/hopset.hpp"
#include "tests/support/reference/shortest_paths.hpp"
#include "tests/support/reference/simulated_graph.hpp"

namespace pmte {
namespace {

TEST(Levels, SamplingBasicProperties) {
  Rng rng(1);
  const auto la = LevelAssignment::sample(1000, rng);
  EXPECT_EQ(la.num_vertices(), 1000U);
  unsigned max_seen = 0;
  std::size_t level0 = 0;
  for (Vertex v = 0; v < 1000; ++v) {
    max_seen = std::max(max_seen, la.level(v));
    level0 += (la.level(v) == 0);
  }
  EXPECT_EQ(max_seen, la.max_level());
  // Roughly half the vertices stay at level 0.
  EXPECT_NEAR(static_cast<double>(level0), 500.0, 100.0);
}

TEST(Levels, LambdaIsLogarithmic) {
  // Lemma 4.1: Λ ∈ O(log n) w.h.p. — over many runs Λ stays ≤ 3·log2(n).
  Rng rng(2);
  const Vertex n = 512;
  for (int run = 0; run < 50; ++run) {
    const auto la = LevelAssignment::sample(n, rng);
    EXPECT_LE(la.max_level(), 3 * static_cast<unsigned>(std::log2(n)));
  }
}

TEST(Levels, GeometricDecay) {
  Rng rng(3);
  const auto la = LevelAssignment::sample(4000, rng);
  for (unsigned lam = 0; lam + 1 <= la.max_level(); ++lam) {
    const auto upper = la.vertices_at_or_above(lam + 1).size();
    const auto lower = la.vertices_at_or_above(lam).size();
    EXPECT_LT(upper, lower);  // strictly fewer at each higher level
  }
}

TEST(Levels, EdgeLevelIsMin) {
  auto la = LevelAssignment::from_levels({0, 2, 1});
  EXPECT_EQ(la.max_level(), 2U);
  EXPECT_EQ(la.edge_level(0, 1), 0U);
  EXPECT_EQ(la.edge_level(1, 2), 1U);
}

TEST(SimGraph, EdgeWeightFormula) {
  // Hand-checkable instance: path 0-1-2, unit weights, fixed levels.
  const auto g = make_path(3);
  auto levels = LevelAssignment::from_levels({0, 1, 0});
  const double eps = 0.5;
  SimulatedGraph h(g, /*d=*/2, eps, std::move(levels));
  // Λ = 1; scale(λ) = 1.5^{1−λ}.
  EXPECT_DOUBLE_EQ(h.level_scale(1), 1.0);
  EXPECT_DOUBLE_EQ(h.level_scale(0), 1.5);
  // ω_Λ(0,1): λ(0,1)=0 → 1.5 · dist²(0,1)=1 → 1.5.
  EXPECT_DOUBLE_EQ(edge_weight_exact(h, 0, 1), 1.5);
  // ω_Λ(0,2): λ=0 → 1.5 · dist²(0,2)=2 → 3.
  EXPECT_DOUBLE_EQ(edge_weight_exact(h, 0, 2), 3.0);
  const auto mat = materialize(h, true);
  EXPECT_DOUBLE_EQ(mat.edge_weight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(mat.edge_weight(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(mat.edge_weight(1, 2), 1.5);
}

TEST(SimGraph, HopBoundLimitsMaterialisedEdges) {
  // With d = 1 only direct edges materialise.
  const auto g = make_path(4);
  auto levels = LevelAssignment::from_levels({0, 0, 0, 0});
  SimulatedGraph h(g, /*d=*/1, 0.0, std::move(levels));
  const auto mat = materialize(h, true);
  EXPECT_EQ(mat.num_edges(), 3U);  // the path's own edges only
}

class SimGraphSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimGraphSandwich, DistanceSandwichHolds) {
  // Theorem 4.5: dist_G ≤ dist_H ≤ (1+ε̂)^{Λ+1} dist_G  (with an exact
  // hop set, so dist^d = dist).
  Rng rng(GetParam());
  const auto g = make_gnm(60, 150, {1.0, 4.0}, rng);
  const auto hs = build_exact_hopset(g);
  const double eps = 0.1;
  const auto h = build_simulated_graph(g, hs, eps, rng);
  const auto mat = materialize(h, true);
  const double bound =
      std::pow(1.0 + eps, static_cast<double>(h.max_level()) + 1.0);
  for (Vertex s : {0U, 11U, 37U}) {
    const auto dg = dijkstra(g, s).dist;
    const auto dh = dijkstra(mat, s).dist;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == s) continue;
      EXPECT_GE(dh[v], dg[v] - 1e-9) << "H must dominate G";
      EXPECT_LE(dh[v], bound * dg[v] + 1e-9) << "H must not stretch too far";
    }
  }
}

TEST_P(SimGraphSandwich, SpdCollapsesOnPathGraphs) {
  // The headline structural effect (Theorem 4.5): SPD(H) ∈ O(log² n)
  // although SPD(G) = n−1.
  Rng rng(GetParam() + 10);
  const Vertex n = 128;
  const auto g = make_path(n);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(g, hs, 1.0 / std::log2(n), rng);
  const auto mat = materialize(h, false);  // Dijkstra distances (fast path)
  const auto info = shortest_path_diameter(mat);
  const auto log2n = std::log2(static_cast<double>(n));
  EXPECT_EQ(shortest_path_diameter(g).spd, n - 1);
  EXPECT_LE(info.spd, static_cast<unsigned>(4.0 * log2n * log2n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimGraphSandwich,
                         ::testing::Values(301, 302, 303));

TEST(SimGraph, RejectsBadParameters) {
  const auto g = make_path(3);
  EXPECT_THROW(SimulatedGraph(g, 0, 0.1, LevelAssignment::from_levels({0, 0, 0})),
               std::logic_error);
  EXPECT_THROW(SimulatedGraph(g, 1, -0.5, LevelAssignment::from_levels({0, 0, 0})),
               std::logic_error);
  EXPECT_THROW(SimulatedGraph(g, 1, 0.1, LevelAssignment::from_levels({0, 0})),
               std::logic_error);
}

}  // namespace
}  // namespace pmte
