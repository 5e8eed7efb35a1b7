// Tests for the synthetic graph families (src/graph/generators.*), plus
// the workload-stream property that the serving tests lean on: per-tenant
// substreams are pinned to their own split_seed stream and stay stable
// while a DynamicEnsemble replays weight updates on the same graph.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/rng.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

TEST(Generators, PathShape) {
  auto g = make_path(10);
  EXPECT_EQ(g.num_vertices(), 10U);
  EXPECT_EQ(g.num_edges(), 9U);
  EXPECT_TRUE(is_connected(g));
  const auto info = shortest_path_diameter(g);
  EXPECT_EQ(info.spd, 9U);
  EXPECT_EQ(info.hop_diam, 9U);
}

TEST(Generators, CycleShape) {
  auto g = make_cycle(8);
  EXPECT_EQ(g.num_edges(), 8U);
  for (Vertex v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2U);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GridShapeAndDistance) {
  auto g = make_grid(4, 5);
  EXPECT_EQ(g.num_vertices(), 20U);
  EXPECT_EQ(g.num_edges(), 4U * 4 + 5U * 3);  // h: 4*4, v: 3*5
  EXPECT_TRUE(is_connected(g));
  // Unit-weight grid: distance = Manhattan distance.
  const auto d = dijkstra(g, 0).dist;
  EXPECT_DOUBLE_EQ(d[19], 3.0 + 4.0);
}

TEST(Generators, TorusDegrees) {
  auto g = make_torus(4, 4);
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4U);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, StarAndComplete) {
  auto star = make_star(6);
  EXPECT_EQ(star.num_edges(), 5U);
  EXPECT_EQ(star.degree(0), 5U);
  auto kn = make_complete(6);
  EXPECT_EQ(kn.num_edges(), 15U);
  const auto info = shortest_path_diameter(kn);
  EXPECT_EQ(info.spd, 1U);
}

TEST(Generators, BinaryTree) {
  auto g = make_binary_tree(15);
  EXPECT_EQ(g.num_edges(), 14U);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GnmConnectedWithRequestedEdges) {
  Rng rng(42);
  auto g = make_gnm(50, 120, {1.0, 2.0}, rng);
  EXPECT_EQ(g.num_vertices(), 50U);
  EXPECT_EQ(g.num_edges(), 120U);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.min_edge_weight(), 1.0);
  EXPECT_LE(g.max_edge_weight(), 2.0);
}

TEST(Generators, GnmRejectsBadM) {
  Rng rng(1);
  EXPECT_THROW(make_gnm(10, 5, {}, rng), std::logic_error);    // < n-1
  EXPECT_THROW(make_gnm(10, 100, {}, rng), std::logic_error);  // > n(n-1)/2
}

TEST(Generators, GeometricConnected) {
  auto g = make_geometric(80, 0.18, Rng(7));
  EXPECT_EQ(g.num_vertices(), 80U);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GT(g.min_edge_weight(), 0.0);
}

TEST(Generators, CaterpillarHighSpd) {
  auto g = make_caterpillar(20, 3, 10.0, 1.0);
  EXPECT_EQ(g.num_vertices(), 20U * 4);
  EXPECT_TRUE(is_connected(g));
  const auto info = shortest_path_diameter(g);
  // Leg–spine–leg paths traverse the whole spine plus two legs.
  EXPECT_GE(info.spd, 20U);
}

TEST(Generators, CliqueChain) {
  auto g = make_clique_chain(4, 5);
  EXPECT_EQ(g.num_vertices(), 20U);
  EXPECT_TRUE(is_connected(g));
  // 4 cliques of C(5,2)=10 edges plus 3 bridges.
  EXPECT_EQ(g.num_edges(), 43U);
}

TEST(Generators, MetricGraphHasSpdOne) {
  // A valid metric: points on a line.
  const Vertex n = 6;
  std::vector<Weight> d(n * n, 0.0);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      d[i * n + j] = std::abs(static_cast<double>(i) - j);
    }
  }
  for (Vertex i = 0; i < n; ++i) d[i * n + i] = 0.0;
  auto g = make_from_metric(n, d);
  EXPECT_EQ(g.num_edges(), n * (n - 1) / 2);
  const auto info = shortest_path_diameter(g);
  EXPECT_EQ(info.spd, 1U);
}

TEST(Generators, Dumbbell) {
  auto g = make_dumbbell(5, 6);
  EXPECT_EQ(g.num_vertices(), 16U);
  EXPECT_TRUE(is_connected(g));
  const auto info = shortest_path_diameter(g);
  EXPECT_GE(info.spd, 7U);
}

TEST(Generators, TenantSubstreamsStableUnderUpdateReplay) {
  // make_multi_tenant_workload promises tenant t's subsequence is exactly
  // make_workload on Rng(split_seed(seed, kTenantWorkloadStreamBase + t)),
  // independent of the other tenants.  The serving tests additionally
  // lean on the stream being a pure function of the graph *structure*:
  // replaying edge-weight updates through a DynamicEnsemble between
  // generation calls must not perturb a single query — weights feed the
  // metric, never the workload draws.
  Rng graph_rng(2024);
  const auto g = make_gnm(128, 512, {1.0, 9.0}, graph_rng);
  std::vector<serve::TenantStreamSpec> specs(3);
  specs[0].kind = serve::WorkloadKind::zipf;
  specs[0].opts.pairs = 220;
  specs[0].opts.zipf_s = 1.3;
  specs[1].kind = serve::WorkloadKind::uniform;
  specs[1].opts.pairs = 150;
  specs[2].kind = serve::WorkloadKind::bfs_local;
  specs[2].opts.pairs = 260;
  specs[2].opts.bfs_hops = 2;
  const std::uint64_t seed = 77;

  const auto same_stream = [](const std::vector<serve::TenantQuery>& a,
                              const std::vector<serve::TenantQuery>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].tenant != b[i].tenant || a[i].u != b[i].u ||
          a[i].v != b[i].v) {
        return false;
      }
    }
    return true;
  };
  const auto check_substreams =
      [&](const Graph& graph, const std::vector<serve::TenantQuery>& stream) {
        for (std::size_t t = 0; t < specs.size(); ++t) {
          std::vector<std::pair<Vertex, Vertex>> sub;
          for (const auto& q : stream) {
            if (q.tenant == static_cast<serve::TenantId>(t)) {
              sub.emplace_back(q.u, q.v);
            }
          }
          Rng rng(split_seed(seed, serve::kTenantWorkloadStreamBase + t));
          const auto standalone =
              serve::make_workload(graph, specs[t].kind, specs[t].opts, rng);
          EXPECT_EQ(sub, standalone) << "tenant " << t;
        }
      };

  const auto stream = serve::make_multi_tenant_workload(g, specs, seed);
  ASSERT_EQ(stream.size(), 220u + 150u + 260u);
  check_substreams(g, stream);

  // Interleave update replay with regeneration: one warm decrease, one
  // invalidating increase, one more decrease.
  serve::EnsembleOptions opts;
  opts.trees = 2;
  opts.pipeline = serve::EnsemblePipeline::oracle;
  serve::DynamicEnsemble dyn(g, seed, opts);
  const auto edges = g.edge_list();
  const double factors[] = {0.5, 1.6, 0.8};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& e = edges[(7 * i + 3) % edges.size()];
    dyn.update(e.u, e.v, dyn.graph().edge_weight(e.u, e.v) * factors[i]);
    const auto replayed =
        serve::make_multi_tenant_workload(dyn.graph(), specs, seed);
    EXPECT_TRUE(same_stream(stream, replayed)) << "after update " << i;
    check_substreams(dyn.graph(), replayed);
  }
}

TEST(Generators, WeightModelUnit) {
  Rng rng(3);
  WeightModel unit;  // lo == hi == 1
  EXPECT_DOUBLE_EQ(unit.draw(rng), 1.0);
  WeightModel range{2.0, 4.0};
  for (int i = 0; i < 100; ++i) {
    const double w = range.draw(rng);
    EXPECT_GE(w, 2.0);
    EXPECT_LT(w, 4.0);
  }
}

}  // namespace
}  // namespace pmte
