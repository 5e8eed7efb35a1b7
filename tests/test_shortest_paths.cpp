// Reference-model tests for Dijkstra / Bellman-Ford / BFS / SPD
// (src/graph/shortest_paths.*), including cross-validation sweeps on random
// graphs: the rest of the library treats these as ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

TEST(Dijkstra, PathGraphDistances) {
  auto g = make_path(6, {2.0, 2.0});
  const auto r = dijkstra(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(r.dist[v], 2.0 * v);
  EXPECT_EQ(r.parent[0], no_vertex());
  EXPECT_EQ(r.parent[3], 2U);
}

TEST(Dijkstra, DisconnectedReportsInfinity) {
  auto g = Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  const auto r = dijkstra(g, 0);
  EXPECT_TRUE(is_finite(r.dist[1]));
  EXPECT_FALSE(is_finite(r.dist[2]));
  EXPECT_FALSE(is_finite(r.dist[3]));
}

TEST(Dijkstra, AgreesWithBellmanFordFixpoint) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    auto g = make_gnm(60, 150, {0.5, 5.0}, rng);
    const auto d = dijkstra(g, 0).dist;
    const auto bf = bellman_ford_hops(g, 0, 60);
    for (Vertex v = 0; v < 60; ++v) EXPECT_NEAR(d[v], bf[v], 1e-9);
  }
}

TEST(BellmanFord, HopLimitedMonotone) {
  Rng rng(5);
  auto g = make_gnm(40, 80, {1.0, 3.0}, rng);
  std::vector<Weight> prev = bellman_ford_hops(g, 0, 0);
  for (unsigned h = 1; h <= 8; ++h) {
    const auto cur = bellman_ford_hops(g, 0, h);
    for (Vertex v = 0; v < 40; ++v) EXPECT_LE(cur[v], prev[v]);
    prev = cur;
  }
}

TEST(BellmanFord, ExactHopSemantics) {
  // Path graph: dist^h(0, v) is finite iff v <= h.
  auto g = make_path(10);
  for (unsigned h = 0; h < 10; ++h) {
    const auto d = bellman_ford_hops(g, 0, h);
    for (Vertex v = 0; v < 10; ++v) {
      if (v <= h) {
        EXPECT_DOUBLE_EQ(d[v], static_cast<double>(v));
      } else {
        EXPECT_FALSE(is_finite(d[v]));
      }
    }
  }
}

TEST(MultiSource, MatchesMinOverSingleSources) {
  Rng rng(6);
  auto g = make_gnm(50, 120, {1.0, 4.0}, rng);
  const std::vector<Vertex> sources{3, 17, 42};
  const auto ms = multi_source_dijkstra(g, sources);
  std::vector<std::vector<Weight>> single;
  for (Vertex s : sources) single.push_back(dijkstra(g, s).dist);
  for (Vertex v = 0; v < 50; ++v) {
    Weight best = inf_weight();
    Vertex who = no_vertex();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (single[i][v] < best) {
        best = single[i][v];
        who = sources[i];
      }
    }
    EXPECT_NEAR(ms.dist[v], best, 1e-9);
    // The owner must achieve the optimal distance (ties may differ).
    bool owner_ok = false;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i] == ms.owner[v] && std::abs(single[i][v] - best) < 1e-9) {
        owner_ok = true;
      }
    }
    EXPECT_TRUE(owner_ok) << "vertex " << v << " owner " << ms.owner[v];
    (void)who;
  }
}

TEST(Bfs, LevelsOnGrid) {
  auto g = make_grid(3, 3);
  const auto h = bfs_hops(g, 0);
  EXPECT_EQ(h[0], 0U);
  EXPECT_EQ(h[4], 2U);  // centre of the 3x3 grid
  EXPECT_EQ(h[8], 4U);  // opposite corner
}

TEST(MinHops, PrefersFewerHopsAmongEqualWeight) {
  // Two shortest 0→3 paths of weight 3: 0-1-2-3 (3 hops) and 0-3 via a
  // direct edge of weight 3 (1 hop).
  auto g = Graph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 3, 3.0}});
  const auto hops = min_hops_on_shortest_paths(g, 0).hops;
  EXPECT_EQ(hops[3], 1U);
  EXPECT_EQ(hops[1], 1U);
  EXPECT_EQ(hops[2], 2U);
}

TEST(Spd, KnownTopologies) {
  EXPECT_EQ(shortest_path_diameter(make_path(17)).spd, 16U);
  EXPECT_EQ(shortest_path_diameter(make_complete(12)).spd, 1U);
  EXPECT_EQ(shortest_path_diameter(make_star(9)).spd, 2U);
  // Unit cycle of even length n: SPD = n/2.
  EXPECT_EQ(shortest_path_diameter(make_cycle(10)).spd, 5U);
}

TEST(Spd, HopDiameterVsSpd) {
  // Weighted caterpillar: hop diameter small relative to SPD when spine
  // weights force shortest paths along many hops.
  auto g = make_caterpillar(30, 1, 1.0, 100.0);
  const auto info = shortest_path_diameter(g);
  EXPECT_GE(info.spd, 29U);
  EXPECT_GE(info.hop_diam, 29U);
}

TEST(Apsp, MatchesPerSourceDijkstra) {
  Rng rng(8);
  auto g = make_gnm(30, 70, {1.0, 2.0}, rng);
  const auto apsp = exact_apsp(g);
  for (Vertex s : {0U, 7U, 29U}) {
    const auto d = dijkstra(g, s).dist;
    for (Vertex v = 0; v < 30; ++v) {
      EXPECT_NEAR(apsp[static_cast<std::size_t>(s) * 30 + v], d[v], 1e-9);
    }
  }
}

TEST(Apsp, SymmetricAndTriangle) {
  Rng rng(9);
  auto g = make_gnm(25, 60, {1.0, 9.0}, rng);
  const auto d = exact_apsp(g);
  const auto at = [&](Vertex i, Vertex j) {
    return d[static_cast<std::size_t>(i) * 25 + j];
  };
  for (Vertex i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(at(i, i), 0.0);
    for (Vertex j = 0; j < 25; ++j) {
      EXPECT_NEAR(at(i, j), at(j, i), 1e-9);
      for (Vertex k = 0; k < 25; ++k) {
        EXPECT_LE(at(i, j), at(i, k) + at(k, j) + 1e-9);
      }
    }
  }
}

TEST(Connectivity, DetectsDisconnected) {
  EXPECT_TRUE(is_connected(make_path(5)));
  EXPECT_FALSE(is_connected(Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}})));
  EXPECT_TRUE(is_connected(Graph::from_edges(1, {})));
}

TEST(Dijkstra, RejectsBadSource) {
  auto g = make_path(3);
  EXPECT_THROW(dijkstra(g, 7), std::logic_error);
  EXPECT_THROW(bellman_ford_hops(g, 9, 2), std::logic_error);
  EXPECT_THROW(bfs_hops(g, 3), std::logic_error);
}

}  // namespace
}  // namespace pmte
