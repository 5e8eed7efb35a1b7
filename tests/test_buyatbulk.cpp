// Tests for the buy-at-bulk application (Section 10).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/apps/buyatbulk.hpp"
#include "src/graph/generators.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

const std::vector<CableType> kCables{
    {1.0, 1.0},    // thin: capacity 1, cost 1
    {8.0, 4.0},    // medium: 8 units for the price of 4 thin
    {64.0, 16.0},  // thick: strong economies of scale
};

TEST(CableCost, PicksCheapestMix) {
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(0.0, kCables), 0.0);
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(1.0, kCables), 1.0);
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(3.0, kCables), 3.0);
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(5.0, kCables), 4.0);   // medium
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(60.0, kCables), 16.0); // thick
  // Single-type pricing (the rule of [10], Section 10 step (2)):
  // 65 units need 2 thick cables (32), cheaper than 9 medium (36).
  EXPECT_DOUBLE_EQ(cable_cost_per_unit_length(65.0, kCables), 32.0);
}

TEST(CableCost, RejectsInvalidTypes) {
  EXPECT_THROW((void)cable_cost_per_unit_length(1.0, {}), std::logic_error);
  EXPECT_THROW((void)cable_cost_per_unit_length(1.0, {{0.0, 1.0}}),
               std::logic_error);
}

TEST(PricePaths, ManualExample) {
  const auto g = make_path(4, {2.0, 2.0});  // edges of weight 2
  // Two demands share edge 1-2.
  const std::vector<std::vector<Vertex>> paths{{0, 1, 2}, {1, 2, 3}};
  const std::vector<double> amounts{1.0, 1.0};
  // Flows: (0,1):1, (1,2):2, (2,3):1 → costs 1, 2, 1 thin cables × weight 2.
  EXPECT_DOUBLE_EQ(price_paths(g, paths, amounts, kCables), 2.0 + 4.0 + 2.0);
}

TEST(PricePaths, RejectsNonEdges) {
  const auto g = make_path(4);
  EXPECT_THROW(
      (void)price_paths(g, {{0, 2}}, {1.0}, kCables),  // 0-2 is not an edge
      std::logic_error);
}

class BuyAtBulk : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<Demand> random_demands(const Graph& g, std::size_t count,
                                     Rng& rng) {
    std::vector<Demand> ds;
    while (ds.size() < count) {
      const auto s = static_cast<Vertex>(rng.below(g.num_vertices()));
      const auto t = static_cast<Vertex>(rng.below(g.num_vertices()));
      if (s == t) continue;
      ds.push_back(Demand{s, t, std::floor(rng.uniform(1.0, 5.0))});
    }
    return ds;
  }
};

TEST_P(BuyAtBulk, SolutionsRespectLowerBound) {
  Rng rng(GetParam());
  const auto g = make_grid(7, 7, {1.0, 2.0}, rng);
  const auto demands = random_demands(g, 20, rng);
  const auto r = buy_at_bulk(g, demands, kCables, {}, rng);
  EXPECT_GT(r.lower_bound, 0.0);
  EXPECT_GE(r.cost, r.lower_bound - 1e-9);
  EXPECT_GE(r.direct_cost, r.lower_bound - 1e-9);
  EXPECT_GT(r.tree_cost, 0.0);
  EXPECT_GT(r.loaded_tree_edges, 0U);
}

TEST_P(BuyAtBulk, ApproximationStaysReasonable) {
  Rng rng(GetParam() + 10);
  const auto g = make_geometric(64, 0.25, rng);
  const auto demands = random_demands(g, 30, rng);
  const auto r = buy_at_bulk(g, demands, kCables, {}, rng);
  // O(log n) expected approximation vs the fractional LB; generous
  // deterministic envelope to avoid flakes: 64 → log2 = 6.
  EXPECT_LE(r.cost, 40.0 * r.lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuyAtBulk,
                         ::testing::Values(1101, 1102, 1103));

TEST(BuyAtBulkBasics, SingleDemandUsesTreePath) {
  Rng rng(1);
  const auto g = make_path(6);
  const std::vector<Demand> demands{{0, 5, 1.0}};
  const auto r = buy_at_bulk(g, demands, kCables, {}, rng);
  // Direct routing on a path graph is optimal: 5 edges × 1 thin cable.
  EXPECT_DOUBLE_EQ(r.direct_cost, 5.0);
  EXPECT_GE(r.cost, 5.0 - 1e-9);  // tree solution can only add detours
}

TEST(BuyAtBulkBasics, ConsolidationBeatsDirectOnStars) {
  // Many unit demands from leaves to leaf 1 of a star: all routes share
  // the centre.  Tree and direct routing coincide here, but both must
  // exploit the thick cable on shared edges.
  Rng rng(2);
  const Vertex n = 40;
  const auto g = make_star(n);
  std::vector<Demand> demands;
  for (Vertex v = 2; v < n; ++v) demands.push_back(Demand{v, 1, 1.0});
  const auto r = buy_at_bulk(g, demands, kCables, {}, rng);
  // Edge (0,1) carries 38 units: a thick cable (cost 16) beats 38 thin.
  EXPECT_LT(r.direct_cost, 38.0 + 38.0);
  EXPECT_GE(r.cost, r.lower_bound);
}

TEST(BuyAtBulkBasics, RejectsEmptyDemands) {
  Rng rng(3);
  const auto g = make_path(4);
  EXPECT_THROW((void)buy_at_bulk(g, {}, kCables, {}, rng), std::logic_error);
}

TEST(BuyAtBulkBasics, RejectsOutOfRangeDemand) {
  // Bad demands are rejected up front, naming the demand's index, before
  // any per-vertex array is read at an out-of-range endpoint.
  const auto g = make_path(4);
  const auto rejects = [&](const Demand& bad) {
    Rng rng(4);
    try {
      (void)buy_at_bulk(g, {{0, 3, 1.0}, bad}, kCables, {}, rng);
    } catch (const std::logic_error& e) {
      return std::string(e.what()).find("demand 1") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejects({1, 4, 1.0}));   // t ≥ n
  EXPECT_TRUE(rejects({9, 2, 1.0}));   // s ≥ n
  EXPECT_TRUE(rejects({0, 2, -1.0}));  // negative amount
  EXPECT_TRUE(rejects({0, 2, std::nan("")}));
  EXPECT_TRUE(rejects({0, 2, inf_weight()}));
  Rng rng(4);
  EXPECT_NO_THROW((void)buy_at_bulk(g, {{0, 3, 1.0}, {3, 3, 0.0}}, kCables,
                                    {}, rng));
}

TEST(BuyAtBulkFlat, FlatRoutingMatchesParentClimbOnCorpus) {
  // Routing over the flat FrtIndex (row-compare LCA, difference trick, CSR
  // flow fold) must load exactly the tree edges, and price exactly the
  // flows, that routing each demand up the parent pointers of the same
  // sampled tree does.  Integral amounts keep every flow sum exact, so the
  // comparison is bitwise.
  const auto corpus = test::small_graph_corpus(50, 7001);
  for (const auto& c : corpus) {
    Rng drng(c.seed + 7);
    std::vector<Demand> demands;
    while (demands.size() < 12) {
      const auto s = static_cast<Vertex>(drng.below(c.graph.num_vertices()));
      const auto t = static_cast<Vertex>(drng.below(c.graph.num_vertices()));
      if (s == t) continue;
      demands.push_back(Demand{s, t, std::floor(drng.uniform(1.0, 5.0))});
    }
    Rng r1(c.seed), r2(c.seed);
    const auto a = buy_at_bulk(c.graph, demands, kCables, {}, r1);
    // The tree is buy_at_bulk's first draw from its Rng: replay it.
    const auto tree = sample_frt_direct(c.graph, r2, BabOptions{}.frt).tree;
    const auto ref = test::bab_tree_flow_reference(tree, demands, kCables);
    EXPECT_EQ(a.tree_cost, ref.tree_cost) << c.name;
    EXPECT_EQ(a.loaded_tree_edges, ref.loaded_tree_edges) << c.name;
    // 2 ancestor rows read per demand, one node read per tree node.
    EXPECT_EQ(a.counters.lca_probes, 2 * demands.size()) << c.name;
    EXPECT_EQ(a.counters.tree_lookups, tree.num_nodes()) << c.name;
  }
}

}  // namespace
}  // namespace pmte
