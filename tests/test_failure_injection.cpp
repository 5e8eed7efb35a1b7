// Failure-injection and edge-case suite: degenerate parameters,
// disconnected inputs, extreme weights, and cross-module error handling.
// Every failure mode must be a clean exception, never UB or a wrong
// silent answer.
#include <gtest/gtest.h>

#include "src/apps/buyatbulk.hpp"
#include "src/apps/kmedian.hpp"
#include "src/congest/congest.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/hopset/hopset.hpp"
#include "src/metric/approx_metric.hpp"
#include "src/serve/frt_index.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "tests/support/reference/hopset.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

TEST(FailureInjection, SingleVertexGraphWorksEverywhere) {
  const auto g = Graph::from_edges(1, {});
  Rng rng(1);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(shortest_path_diameter(g).spd, 0U);
  const auto sample = sample_frt_direct(g, rng);
  EXPECT_NO_THROW((void)serve::FrtIndex::build(sample.tree));
  EXPECT_DOUBLE_EQ(sample.tree.distance(0, 0), 0.0);
  const auto km = kmedian_frt(g, 1, {}, rng);
  EXPECT_DOUBLE_EQ(km.cost, 0.0);
}

TEST(FailureInjection, TwoVertexGraph) {
  const auto g = Graph::from_edges(2, {{0, 1, 3.5}});
  Rng rng(2);
  const auto sample = sample_frt_oracle(g, rng);
  EXPECT_NO_THROW((void)serve::FrtIndex::build(sample.tree));
  EXPECT_GE(sample.tree.distance(0, 1), 3.5 - 1e-9);
}

TEST(FailureInjection, DisconnectedGraphsFailLoudly) {
  const auto g = Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  Rng rng(3);
  // FRT requires connectivity; the failure is a clean exception.
  EXPECT_THROW((void)sample_frt_direct(g, rng), std::logic_error);
  EXPECT_THROW((void)kmedian_frt(g, 2, {}, rng), std::logic_error);
  const std::vector<Demand> demands{{0, 2, 1.0}};  // across components
  const std::vector<CableType> cables{{1.0, 1.0}};
  EXPECT_THROW((void)buy_at_bulk(g, demands, cables, {}, rng),
               std::logic_error);
}

TEST(FailureInjection, ExtremeWeightRatios) {
  // 1e-6 … 1e6 spans 12 decades; scales stay finite and trees valid.
  std::vector<WeightedEdge> edges;
  Rng rng(4);
  for (Vertex i = 0; i + 1 < 30; ++i) {
    edges.push_back(WeightedEdge{
        i, static_cast<Vertex>(i + 1),
        (i % 2 == 0) ? 1e-6 * rng.uniform(1, 2) : 1e6 * rng.uniform(1, 2)});
  }
  const auto g = Graph::from_edges(30, edges);
  const auto sample = sample_frt_direct(g, rng);
  EXPECT_NO_THROW((void)serve::FrtIndex::build(sample.tree));
  EXPECT_LT(sample.tree.num_levels(), 64U);  // log of the weight spread
  const auto d = dijkstra(g, 0).dist;
  for (Vertex v = 1; v < 30; ++v) {
    EXPECT_GE(sample.tree.distance(0, v), d[v] - 1e-9);
  }
}

TEST(FailureInjection, HopsetOnTinyGraphs) {
  Rng rng(5);
  const auto g = Graph::from_edges(2, {{0, 1, 1.0}});
  const auto hs = build_hub_hopset(g, {}, rng);
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, 2, rng), 1.0);
  const auto h = build_simulated_graph(g, hs, 0.1, rng);
  EXPECT_GE(h.hop_bound(), 1U);
}

TEST(FailureInjection, OracleOnStarGraph) {
  // Star: SPD 2 — the oracle must not be slower than two H-iterations.
  Rng rng(6);
  const auto g = make_star(50, {1.0, 4.0}, rng);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(g, hs, 0.05, rng);
  const auto order = VertexOrder::random(50, rng);
  const auto le = le_lists_oracle(h, order);
  EXPECT_TRUE(le.converged);
  EXPECT_LE(le.iterations, 4U);
}

TEST(FailureInjection, KMedianDegenerateParameters) {
  Rng rng(7);
  const auto g = make_path(6);
  EXPECT_THROW((void)kmedian_frt(g, 0, {}, rng), std::logic_error);
  EXPECT_THROW((void)kmedian_local_search(g, 7, 2, rng), std::logic_error);
  EXPECT_THROW((void)kmedian_random(g, 0, rng), std::logic_error);
  // k == n is legal and free.
  EXPECT_DOUBLE_EQ(kmedian_random(g, 6, rng).cost, 0.0);
}

TEST(FailureInjection, BuyAtBulkSelfDemandIsFree) {
  Rng rng(8);
  const auto g = make_path(5);
  const std::vector<CableType> cables{{1.0, 1.0}};
  const std::vector<Demand> demands{{2, 2, 10.0}};  // s == t
  const auto r = buy_at_bulk(g, demands, cables, {}, rng);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_DOUBLE_EQ(r.lower_bound, 0.0);
}

TEST(FailureInjection, CongestOnMinimalGraphs) {
  Rng rng(9);
  const auto g = Graph::from_edges(2, {{0, 1, 1.0}});
  const auto order = VertexOrder::random(2, rng);
  const auto khan = congest_frt_khan(g, order);
  EXPECT_TRUE(khan.le.converged);
  EXPECT_GE(khan.rounds, 1U);
  const auto sk = congest_frt_skeleton(g, {}, rng);
  EXPECT_FALSE(sk.run.le.lists.empty());
}

TEST(FailureInjection, ApproxMetricOnPathEnds) {
  Rng rng(10);
  const auto g = make_path(12, {1.0, 1.0});
  ApproxMetricOptions opts;
  opts.eps_hat = 0.02;
  const auto r = approximate_metric(g, opts, rng);
  // Endpoint distance 11 must be representable and ≥ exact.
  EXPECT_GE(r.dist[11], 11.0 - 1e-9);
  EXPECT_LE(r.dist[11], 11.0 * 1.6);
}

TEST(FailureInjection, LevelAssignmentZeroVertices) {
  Rng rng(11);
  const auto la = LevelAssignment::sample(0, rng);
  EXPECT_EQ(la.num_vertices(), 0U);
  EXPECT_EQ(la.max_level(), 0U);
}

TEST(FailureInjection, RandomRegularGeneratorContracts) {
  Rng rng(12);
  const auto g = make_random_regular(50, 4, {1.0, 2.0}, rng);
  EXPECT_TRUE(is_connected(g));
  for (Vertex v = 0; v < 50; ++v) EXPECT_LE(g.degree(v), 4U);
  EXPECT_THROW((void)make_random_regular(50, 3, {}, rng), std::logic_error);
  EXPECT_THROW((void)make_random_regular(50, 0, {}, rng), std::logic_error);
  EXPECT_THROW((void)make_random_regular(4, 4, {}, rng), std::logic_error);
}

TEST(FailureInjection, ExpanderStretchIsWorstCaseFamily) {
  // Expanders witness the Ω(log n) lower bound [7]: measured expected
  // stretch should clearly exceed 1 yet stay O(log n).
  Rng rng(13);
  const auto g = make_random_regular(64, 4, {1.0, 1.0}, rng);
  double total = 0.0;
  const auto d0 = dijkstra(g, 0).dist;
  int trees = 6, pairs = 0;
  std::vector<FrtTree> ts;
  for (int t = 0; t < trees; ++t) ts.push_back(sample_frt_direct(g, rng).tree);
  for (Vertex v = 1; v < 64; v += 3) {
    double avg = 0;
    for (const auto& t : ts) avg += t.distance(0, v) / d0[v];
    total += avg / trees;
    ++pairs;
  }
  const double mean = total / pairs;
  EXPECT_GT(mean, 1.5);
  EXPECT_LT(mean, 60.0);
}

}  // namespace
}  // namespace pmte
