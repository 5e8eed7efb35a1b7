// Tests for path unfolding (Section 7.5): every tree edge maps to a real
// walk in G whose weight respects the 3·ω_T(e) bound, and each node's
// common descendant is picked by the documented representative rule.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/frt/paths.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

class Unfolding : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Unfolding, PathsAreValidWalks) {
  Rng rng(GetParam());
  const auto g = make_gnm(36, 80, {1.0, 5.0}, rng);
  const auto sample = sample_frt_direct(g, rng);
  const auto links = test::tree_links(sample.tree);
  PathUnfolder unfolder(g, sample.tree);
  for (FrtTree::NodeId id = 0; id < sample.tree.num_nodes(); ++id) {
    if (id == links.root) continue;
    const auto u = unfolder.unfold(id);
    ASSERT_FALSE(u.path.empty());
    // Endpoints are the leading vertices of parent and child.
    EXPECT_EQ(u.path.front(), sample.tree.leading(links.parent[id]));
    EXPECT_EQ(u.path.back(), sample.tree.leading(id));
    // Consecutive path vertices are joined by edges; weights add up.
    Weight total = 0.0;
    for (std::size_t i = 1; i < u.path.size(); ++i) {
      const Weight w = g.edge_weight(u.path[i - 1], u.path[i]);
      ASSERT_TRUE(is_finite(w)) << "non-edge on unfolded path";
      total += w;
    }
    EXPECT_NEAR(total, u.weight, 1e-9);
  }
}

TEST_P(Unfolding, WeightWithinPaperBound) {
  // dist(v0, v_i) + dist(v0, v_{i+1}) ≤ β2^i + β2^{i+1} = 3·β2^i; with the
  // dominating rule ω_T(e) = β2^{i+1}, so the walk weighs ≤ 1.5·ω_T(e).
  Rng rng(GetParam() + 10);
  const auto g = make_grid(6, 6, {1.0, 2.0}, rng);
  const auto sample = sample_frt_direct(g, rng);
  const auto links = test::tree_links(sample.tree);
  PathUnfolder unfolder(g, sample.tree);
  for (FrtTree::NodeId id = 0; id < sample.tree.num_nodes(); ++id) {
    if (id == links.root) continue;
    const auto u = unfolder.unfold(id);
    const unsigned level = links.level[id];
    EXPECT_LE(u.weight, 1.5 * sample.tree.edge_weight(level) + 1e-9)
        << "tree edge at level " << level;
  }
}

TEST_P(Unfolding, DijkstraCacheIsShared) {
  Rng rng(GetParam() + 20);
  const auto g = make_gnm(30, 70, {1.0, 2.0}, rng);
  const auto sample = sample_frt_direct(g, rng);
  const auto links = test::tree_links(sample.tree);
  PathUnfolder unfolder(g, sample.tree);
  std::size_t edges = 0;
  for (FrtTree::NodeId id = 0; id < sample.tree.num_nodes(); ++id) {
    if (id == links.root) continue;
    (void)unfolder.unfold(id);
    ++edges;
  }
  // One Dijkstra per distinct representative leaf, never per edge.
  EXPECT_LT(unfolder.dijkstra_runs(), edges);
  EXPECT_LE(unfolder.dijkstra_runs(), g.num_vertices());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Unfolding, ::testing::Values(701, 702, 703));

TEST(Unfolding, RootHasNoParentEdge) {
  Rng rng(1);
  const auto g = make_path(8);
  const auto sample = sample_frt_direct(g, rng);
  PathUnfolder unfolder(g, sample.tree);
  EXPECT_THROW((void)unfolder.unfold(test::tree_links(sample.tree).root),
               std::logic_error);
}

TEST(Unfolding, RepresentativeDescendsIntoTheLargestIdChild) {
  // The representative leaf of a node is reached by descending into the
  // child with the largest id until a leaf.  Buy-at-bulk's cost and its
  // Dijkstra count depend on exactly this rule, and it is not "the largest
  // vertex of the subtree": the tally proves the corpus tells them apart.
  const auto corpus = test::small_graph_corpus(50, 7001);
  std::size_t rules_differ = 0;
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto links = test::tree_links(s.tree);
    const std::size_t nodes = s.tree.num_nodes();
    std::vector<FrtTree::NodeId> largest_child(nodes, 0);
    for (FrtTree::NodeId id = 0; id < nodes; ++id) {
      if (id == links.root) continue;
      auto& best = largest_child[links.parent[id]];
      best = std::max(best, id);
    }
    std::vector<Vertex> leaf_vertex(nodes, no_vertex());
    std::vector<Vertex> largest_vertex(nodes, 0);
    for (Vertex v = 0; v < c.graph.num_vertices(); ++v) {
      leaf_vertex[s.tree.row(v)[0]] = v;
      for (const auto id : s.tree.row(v)) {
        largest_vertex[id] = std::max(largest_vertex[id], v);
      }
    }
    const PathUnfolder unfolder(c.graph, s.tree);
    for (FrtTree::NodeId id = 0; id < nodes; ++id) {
      FrtTree::NodeId leaf = id;
      while (links.level[leaf] > 0) leaf = largest_child[leaf];
      EXPECT_EQ(unfolder.representative(id), leaf_vertex[leaf])
          << c.name << " node " << id;
      rules_differ += leaf_vertex[leaf] != largest_vertex[id] ? 1U : 0U;
    }
  }
  EXPECT_GT(rules_differ, 0U);
}

}  // namespace
}  // namespace pmte
