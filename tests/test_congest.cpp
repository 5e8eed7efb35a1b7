// Tests for the Congest-model simulation (Section 8): round accounting of
// the Khan et al. algorithm and the skeleton-based algorithm.  Graphs and
// the Dijkstra reference come from the shared tests/support library.
#include <gtest/gtest.h>

#include <cmath>

#include "src/congest/congest.hpp"
#include "src/frt/frt_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/serve/frt_index.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

TEST(CongestKhan, ListsMatchDirectIteration) {
  const auto g = test::support_graph("gnm", 40, 1);
  Rng rng(1);
  const auto order = VertexOrder::random(40, rng);
  const auto run = congest_frt_khan(g, order);
  const auto direct = le_lists_iteration(g, order);
  ASSERT_TRUE(run.le.converged);
  for (Vertex v = 0; v < 40; ++v) {
    EXPECT_EQ(run.le.lists[v], direct.lists[v]) << "vertex " << v;
  }
  test::expect_valid_le_lists(run.le.lists, order);
}

TEST(CongestKhan, RoundsScaleWithSpdTimesListSize) {
  // Each iteration costs max list length rounds; Θ(SPD) iterations.
  const auto g = test::support_graph("path", 100, 2);
  Rng rng(2);
  const auto order = VertexOrder::random(100, rng);
  const auto run = congest_frt_khan(g, order);
  EXPECT_GE(run.le.iterations, 50U);
  EXPECT_GE(run.rounds, run.le.iterations);  // ≥ 1 round per iteration
  // O(SPD·log n) w.h.p.: generous envelope.
  EXPECT_LE(run.rounds,
            static_cast<std::uint64_t>(100 * 8 * std::log2(100.0)));
}

TEST(CongestSkeleton, ProducesValidListsAndEmbedding) {
  const auto g = test::support_graph("cliquechain", 72, 3);
  Rng rng(3);
  SkeletonOptions opts;
  opts.spanner_k = 2;
  const auto sk = congest_frt_skeleton(g, opts, rng);
  ASSERT_EQ(sk.run.le.lists.size(), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(sk.run.le.lists[v].is_least_element_list()) << "vertex " << v;
    EXPECT_FALSE(sk.run.le.lists[v].empty());
  }
  EXPECT_GT(sk.run.skeleton_size, 0U);
  EXPECT_DOUBLE_EQ(sk.run.embedding_stretch, 3.0);  // 2k−1
  // The virtual graph dominates G and stays within (2k−1)·(1+o(1)).
  const auto dg = test::dijkstra_reference(g, 0);
  const auto dh = test::dijkstra_reference(sk.virtual_graph, 0);
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    EXPECT_GE(dh[v], dg[v] - 1e-9);
    EXPECT_LE(dh[v], 3.0 * dg[v] + 1e-9);
  }
}

TEST(CongestSkeleton, ListsAreListsOfVirtualGraph) {
  // With ℓ = n the final phase runs to the fixpoint, so the produced lists
  // must match sequential LE lists of the explicit virtual graph.
  const auto g = test::support_graph("gnm", 30, 4);
  Rng rng(4);
  SkeletonOptions opts;
  opts.ell = 30;  // full propagation
  opts.spanner_k = 2;
  const auto sk = congest_frt_skeleton(g, opts, rng);
  const auto ref = le_lists_sequential(sk.virtual_graph, sk.order);
  std::size_t agree = 0;
  for (Vertex v = 0; v < 30; ++v) {
    agree += test::approx_equal(sk.run.le.lists[v], ref.lists[v]) ? 1 : 0;
  }
  // Equation (8.9) holds w.h.p.; demand near-total agreement.
  EXPECT_GE(agree, 28U);
}

TEST(CongestSkeleton, BeatsKhanOnHighSpdGraphs) {
  // The motivating regime (Section 8): SPD(G) ≈ n but D(G) tiny.  A long
  // unit path plus a prohibitively heavy star centre keeps every shortest
  // path on the path (SPD = n−1) while D(G) = 2.  Khan pays
  // Θ(SPD·|list|) rounds; the skeleton algorithm Õ(√n + D).  (The graph
  // stays hand-built — it is deliberately adversarial, not a fixture
  // family.)
  Rng rng(5);
  const Vertex n = 400;
  auto edges = make_path(n).edge_list();
  for (Vertex v = 0; v + 1 < n; ++v) {
    edges.push_back(WeightedEdge{v, static_cast<Vertex>(n - 1), 1e6});
  }
  const auto g = Graph::from_edges(n, std::move(edges));
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto khan = congest_frt_khan(g, order);
  SkeletonOptions opts;
  opts.size_constant = 0.15;  // |S| ≈ ℓ keeps the broadcast term small
  const auto sk = congest_frt_skeleton(g, opts, rng);
  EXPECT_LT(sk.run.rounds, khan.rounds);
}

TEST(CongestSkeleton, TreeFromListsIsUsable) {
  const auto g = test::support_graph("gnm", 36, 6);
  Rng rng(6);
  const auto sk = congest_frt_skeleton(g, {}, rng);
  const auto tree =
      FrtTree::build(sk.run.le.lists, sk.order, 1.3,
                     sk.virtual_graph.min_edge_weight());
  EXPECT_NO_THROW((void)serve::FrtIndex::build(tree));
  EXPECT_EQ(tree.num_leaves(), g.num_vertices());
}

TEST(CongestKhan, MatchesBruteForceOverCorpusSlice) {
  // Cross-check against the shared brute-force LE-list reference on a
  // slice of the common corpus (the direct-iteration equivalence above
  // covers one graph; this covers the families).
  const auto corpus = test::small_graph_corpus(12, 8101);
  for (std::size_t i = 0; i < corpus.size(); i += 3) {
    const auto& c = corpus[i];
    Rng rng(c.seed);
    const auto order = VertexOrder::random(c.graph.num_vertices(), rng);
    const auto run = congest_frt_khan(c.graph, order);
    ASSERT_TRUE(run.le.converged) << c.name;
    const auto ref = test::brute_force_le_lists(c.graph, order);
    for (Vertex v = 0; v < c.graph.num_vertices(); ++v) {
      EXPECT_TRUE(test::approx_equal(run.le.lists[v], ref[v]))
          << c.name << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace pmte
