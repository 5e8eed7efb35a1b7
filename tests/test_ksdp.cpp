// Tests for the k-Shortest Distance Problem over the all-paths semiring
// (Section 3.3, Examples 3.23/3.24).
//
// Note on test strength: because Pmin,+ contains loop-free
// paths only, a dominating suffix at an intermediate vertex may be
// non-extendable (it would close a loop), so for 2 ≤ k < ∞ the filtered
// fixpoint is not always the brute-force list of k shortest *simple*
// paths.  The exactly-checkable regimes are k = 1 (a dominating suffix
// always yields a strictly better competitor, extendable or not) and the
// unbounded filter (nothing is ever dropped except non-target paths).  For
// intermediate k we assert soundness: every reported path is a real path
// with its true weight, and the best reported path is the true optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/graph/generators.hpp"
#include "src/mbf/algorithms.hpp"

namespace pmte {
namespace {

/// All simple start→target paths with weights (exponential; tiny graphs).
std::vector<PathEntry> enumerate_paths(const Graph& g, Vertex start,
                                       Vertex target) {
  std::vector<PathEntry> out;
  std::vector<Vertex> cur{start};
  std::vector<bool> used(g.num_vertices(), false);
  used[start] = true;
  std::function<void(Vertex, double)> dfs = [&](Vertex v, double w) {
    if (v == target) {
      out.push_back(PathEntry{VertexPath{cur}, w});
      return;  // simple paths cannot revisit the target
    }
    for (const auto& e : g.neighbors(v)) {
      if (used[e.to]) continue;
      used[e.to] = true;
      cur.push_back(e.to);
      dfs(e.to, w + e.weight);
      cur.pop_back();
      used[e.to] = false;
    }
  };
  dfs(start, 0.0);
  std::sort(out.begin(), out.end(), [](const PathEntry& a, const PathEntry& b) {
    return a.weight < b.weight || (a.weight == b.weight && a.path < b.path);
  });
  return out;
}

class KsdpBrute : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph(std::uint64_t salt = 0) {
    Rng rng(GetParam() + salt);
    return make_gnm(8, 14, {1.0, 4.0}, rng);
  }
};

TEST_P(KsdpBrute, KOneMatchesEnumeration) {
  const auto g = random_graph();
  const Vertex target = 0;
  const auto result = mbf_ksdp(g, target, 1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto all = enumerate_paths(g, v, target);
    if (all.empty()) {
      EXPECT_EQ(result[v].size(), 0U);
      continue;
    }
    ASSERT_EQ(result[v].size(), 1U) << "vertex " << v;
    const auto& got = result[v].entries()[0];
    EXPECT_EQ(got.path, all[0].path) << "vertex " << v;
    EXPECT_NEAR(got.weight, all[0].weight, 1e-9);
  }
}

TEST_P(KsdpBrute, UnboundedFilterFindsAllPaths) {
  const auto g = random_graph(1);
  const Vertex target = 2;
  const auto result = mbf_ksdp(g, target, static_cast<std::size_t>(-1));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto all = enumerate_paths(g, v, target);
    ASSERT_EQ(result[v].size(), all.size()) << "vertex " << v;
    for (const auto& pe : all) {
      EXPECT_NEAR(result[v].weight_of(pe.path), pe.weight, 1e-9)
          << "vertex " << v;
    }
  }
}

TEST_P(KsdpBrute, IntermediateKIsSound) {
  const auto g = random_graph(2);
  const Vertex target = 1;
  const std::size_t k = 3;
  const auto result = mbf_ksdp(g, target, k);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto all = enumerate_paths(g, v, target);
    EXPECT_LE(result[v].size(), k);
    // Soundness: every reported path is a true path with its true weight.
    for (const auto& e : result[v].entries()) {
      EXPECT_EQ(e.path.front(), v);
      EXPECT_EQ(e.path.back(), target);
      const auto it =
          std::find_if(all.begin(), all.end(), [&](const PathEntry& pe) {
            return pe.path == e.path;
          });
      ASSERT_NE(it, all.end()) << "fabricated path at vertex " << v;
      EXPECT_NEAR(it->weight, e.weight, 1e-9);
    }
    // The best reported path is the true optimum.
    if (!all.empty()) {
      ASSERT_GE(result[v].size(), 1U);
      double best = inf_weight();
      for (const auto& e : result[v].entries()) best = std::min(best, e.weight);
      EXPECT_NEAR(best, all[0].weight, 1e-9) << "vertex " << v;
    }
  }
}

TEST_P(KsdpBrute, DistinctWeightsAreDistinct) {
  Rng rng(GetParam() + 7);
  // Unit weights force ties; k-DSDP must report pairwise distinct weights.
  const auto g = make_gnm(8, 13, {1.0, 1.0}, rng);
  const Vertex target = 1;
  const auto result = mbf_ksdp(g, target, 2, ~0U, /*distinct=*/true);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::vector<double> ws;
    for (const auto& e : result[v].entries()) ws.push_back(e.weight);
    std::sort(ws.begin(), ws.end());
    EXPECT_TRUE(std::adjacent_find(ws.begin(), ws.end()) == ws.end())
        << "duplicate weights at vertex " << v;
    // Shortest distance is exact (k=1-strength guarantee).
    const auto all = enumerate_paths(g, v, target);
    if (!all.empty()) {
      ASSERT_FALSE(ws.empty());
      EXPECT_NEAR(ws.front(), all[0].weight, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KsdpBrute,
                         ::testing::Values(201, 202, 203, 204));

TEST(Ksdp, PathGraphExactPaths) {
  // On a path graph there is exactly one simple path per pair.
  auto g = make_path(5, {2.0, 2.0});
  const auto result = mbf_ksdp(g, 0, 3);
  for (Vertex v = 1; v < 5; ++v) {
    ASSERT_EQ(result[v].size(), 1U);
    const auto& e = result[v].entries()[0];
    EXPECT_EQ(e.path.front(), v);
    EXPECT_EQ(e.path.back(), 0U);
    EXPECT_EQ(e.path.hops.size(), v + 1U);
    EXPECT_DOUBLE_EQ(e.weight, 2.0 * v);
  }
}

TEST(Ksdp, TargetKeepsTrivialPath) {
  auto g = make_path(3);
  const auto result = mbf_ksdp(g, 2, 2);
  EXPECT_DOUBLE_EQ(result[2].weight_of(VertexPath{{2}}), 0.0);
}

TEST(Ksdp, CycleOffersTwoPaths) {
  // A 4-cycle with distinct weights: both directions are simple paths.
  auto g = Graph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}, {3, 0, 8.0}});
  const auto result = mbf_ksdp(g, 0, 2);
  // Vertex 2 reaches 0 clockwise (2,1,0): 3 and counter-clockwise (2,3,0): 12.
  ASSERT_EQ(result[2].size(), 2U);
  EXPECT_DOUBLE_EQ(result[2].weight_of(VertexPath{{2, 1, 0}}), 3.0);
  EXPECT_DOUBLE_EQ(result[2].weight_of(VertexPath{{2, 3, 0}}), 12.0);
}

}  // namespace
}  // namespace pmte
