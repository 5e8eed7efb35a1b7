// Tests for Δ-stepping SSSP against Dijkstra.
#include <gtest/gtest.h>

#include "tests/support/reference/delta_stepping.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"

namespace pmte {
namespace {

class DeltaStepping : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaStepping, MatchesDijkstraOnRandomGraphs) {
  Rng rng(GetParam());
  const auto g = make_gnm(120, 400, {0.5, 8.0}, rng);
  const auto ref = dijkstra(g, 0).dist;
  for (const Weight delta : {0.0, 0.5, 2.0, 100.0}) {
    const auto ds = delta_stepping(g, 0, delta);
    for (Vertex v = 0; v < 120; ++v) {
      if (is_finite(ref[v])) {
        EXPECT_NEAR(ds.dist[v], ref[v], 1e-9)
            << "vertex " << v << " delta " << delta;
      } else {
        EXPECT_FALSE(is_finite(ds.dist[v]));
      }
    }
  }
}

TEST_P(DeltaStepping, WorksOnAllFamilies) {
  Rng rng(GetParam() + 50);
  for (const auto& g :
       {make_path(80, {1.0, 3.0}, rng), make_grid(9, 9, {1.0, 2.0}, rng),
        make_star(60, {1.0, 9.0}, rng),
        make_geometric(70, 0.25, rng)}) {
    const auto ref = dijkstra(g, 0).dist;
    const auto ds = delta_stepping(g, 0);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (is_finite(ref[v])) {
        EXPECT_NEAR(ds.dist[v], ref[v], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaStepping,
                         ::testing::Values(1501, 1502, 1503, 1504));

TEST(DeltaSteppingBasics, PhaseCountScalesWithDelta) {
  // Larger Δ → fewer buckets (Bellman-Ford limit); smaller Δ → more
  // buckets (Dijkstra limit).
  const auto g = make_path(200);
  const auto coarse = delta_stepping(g, 0, 1000.0);
  const auto fine = delta_stepping(g, 0, 1.0);
  EXPECT_LT(coarse.phases, fine.phases);
  EXPECT_DOUBLE_EQ(coarse.dist[199], 199.0);
  EXPECT_DOUBLE_EQ(fine.dist[199], 199.0);
}

TEST(DeltaSteppingBasics, DisconnectedStaysInfinite) {
  const auto g = Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const auto ds = delta_stepping(g, 0);
  EXPECT_FALSE(is_finite(ds.dist[2]));
  EXPECT_TRUE(is_finite(ds.dist[1]));
}

TEST(DeltaSteppingBasics, RejectsBadSource) {
  const auto g = make_path(3);
  EXPECT_THROW((void)delta_stepping(g, 5), std::logic_error);
}

}  // namespace
}  // namespace pmte
