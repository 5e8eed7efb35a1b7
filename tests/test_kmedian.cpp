// Tests for the k-median application (Section 9): the exact HST dynamic
// program (over the flat serving index) against brute force, and
// end-to-end quality against baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/apps/kmedian.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/frt_index.hpp"
#include "tests/support/fixtures.hpp"

namespace pmte {
namespace {

/// Brute-force weighted k-median on the tree metric restricted to leaves.
double brute_tree_kmedian(const FrtTree& tree,
                          const std::vector<double>& weight, std::size_t k) {
  const Vertex n = tree.num_leaves();
  std::vector<Vertex> leaves(n);
  for (Vertex v = 0; v < n; ++v) leaves[v] = v;
  double best = inf_weight();
  std::vector<Vertex> subset;
  // Enumerate all subsets of size ≤ k (n choose k small in tests).
  std::function<void(Vertex, std::size_t)> rec = [&](Vertex start,
                                                     std::size_t left) {
    if (!subset.empty()) {
      double cost = 0.0;
      for (Vertex v = 0; v < n; ++v) {
        double d = inf_weight();
        for (Vertex c : subset) d = std::min(d, tree.distance(v, c));
        cost += weight[v] * d;
      }
      best = std::min(best, cost);
    }
    if (left == 0) return;
    for (Vertex c = start; c < n; ++c) {
      subset.push_back(c);
      rec(c + 1, left - 1);
      subset.pop_back();
    }
  };
  rec(0, k);
  return best;
}

class TreeDpBrute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeDpBrute, DpMatchesBruteForce) {
  Rng rng(GetParam());
  const auto g = make_gnm(12, 26, {1.0, 6.0}, rng);
  const auto sample = sample_frt_direct(g, rng);
  std::vector<double> weight(12);
  for (auto& w : weight) w = std::floor(rng.uniform(0.0, 4.0));
  for (std::size_t k : {1U, 2U, 3U}) {
    const auto sol =
        solve_kmedian_on_index(serve::FrtIndex::build(sample.tree), weight, k);
    const double brute = brute_tree_kmedian(sample.tree, weight, k);
    EXPECT_NEAR(sol.cost, brute, 1e-6) << "k=" << k;
    // Reported centers must realise the reported cost.
    double check = 0.0;
    for (Vertex v = 0; v < 12; ++v) {
      double d = inf_weight();
      for (Vertex c : sol.centers) d = std::min(d, sample.tree.distance(v, c));
      check += weight[v] * d;
    }
    EXPECT_NEAR(check, sol.cost, 1e-6) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeDpBrute,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005));

TEST(TreeDp, SingleFacilityCoversAll) {
  Rng rng(1);
  const auto g = make_star(10, {1.0, 3.0}, rng);
  const auto sample = sample_frt_direct(g, rng);
  std::vector<double> weight(10, 1.0);
  const auto sol =
      solve_kmedian_on_index(serve::FrtIndex::build(sample.tree), weight, 1);
  EXPECT_EQ(sol.centers.size(), 1U);
  EXPECT_GT(sol.cost, 0.0);
}

TEST(TreeDp, KEqualsLeavesIsFree) {
  Rng rng(2);
  const auto g = make_path(8);
  const auto sample = sample_frt_direct(g, rng);
  std::vector<double> weight(8, 1.0);
  const auto sol =
      solve_kmedian_on_index(serve::FrtIndex::build(sample.tree), weight, 8);
  EXPECT_DOUBLE_EQ(sol.cost, 0.0);
  EXPECT_EQ(sol.centers.size(), 8U);
}

TEST(KMedian, CostFunctionMatchesDefinition) {
  const auto g = make_path(5);  // 0-1-2-3-4 unit weights
  EXPECT_DOUBLE_EQ(kmedian_cost(g, {2}), 1.0 + 2.0 + 0.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(kmedian_cost(g, {0, 4}), 0.0 + 1.0 + 2.0 + 1.0 + 0.0);
  EXPECT_THROW((void)kmedian_cost(g, {}), std::logic_error);
}

TEST(KMedian, FrtPipelineBeatsRandomAndTracksLocalSearch) {
  Rng rng(3);
  const auto g = make_grid(9, 9, {1.0, 2.0}, rng);
  const std::size_t k = 5;
  KMedianOptions opts;
  opts.trees = 4;
  const auto frt = kmedian_frt(g, k, opts, rng);
  const auto rnd = kmedian_random(g, k, rng);
  const auto ls = kmedian_local_search(g, k, 6, rng);
  EXPECT_LE(frt.centers.size(), k);
  EXPECT_GT(frt.candidates, k);
  // Sanity: at most O(log k) worse than local search (generous factor),
  // and no worse than 1.5× a random solution.
  EXPECT_LE(frt.cost, 4.0 * ls.cost);
  EXPECT_LE(frt.cost, 1.5 * rnd.cost);
}

TEST(KMedian, ExactForKEqualsN) {
  Rng rng(4);
  const auto g = make_gnm(16, 34, {1.0, 2.0}, rng);
  KMedianOptions opts;
  opts.trees = 2;
  const auto r = kmedian_frt(g, 16, opts, rng);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);  // every vertex can host a center
}

TEST(KMedian, RejectsBadK) {
  const auto g = make_path(4);
  Rng rng(5);
  EXPECT_THROW((void)kmedian_frt(g, 0, {}, rng), std::logic_error);
  EXPECT_THROW((void)kmedian_frt(g, 9, {}, rng), std::logic_error);
}

TEST(TreeDp, MatchesBruteForceOnCorpus) {
  // The index DP against brute-force enumeration on every corpus graph;
  // the condensation visits every index node exactly once.
  const auto corpus = test::small_graph_corpus(50, 7001);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto idx = serve::FrtIndex::build(s.tree);
    std::vector<double> weight(c.graph.num_vertices());
    for (auto& w : weight) w = std::floor(rng.uniform(0.0, 5.0));
    for (const std::size_t k : {1U, 2U}) {
      const auto sol = solve_kmedian_on_index(idx, weight, k);
      EXPECT_NEAR(sol.cost, brute_tree_kmedian(s.tree, weight, k), 1e-6)
          << c.name << " k=" << k;
      EXPECT_LE(sol.centers.size(), k) << c.name;
      EXPECT_EQ(sol.counters.tree_lookups, idx.num_nodes()) << c.name;
    }
  }
}

}  // namespace
}  // namespace pmte
