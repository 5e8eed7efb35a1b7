// Tests for FRT tree construction (Section 7.1, Lemma 7.2): structural
// validity, the dominance property of the default weight rule, and the
// O(log n) expected stretch on sampled instances.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/frt/pipelines.hpp"
#include "src/frt/stretch.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/frt_index.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

class FrtTreeBuild : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph() {
    Rng rng(GetParam());
    return make_gnm(40, 90, {1.0, 7.0}, rng);
  }
};

TEST_P(FrtTreeBuild, TreeIsStructurallyValid) {
  const auto g = random_graph();
  Rng rng(GetParam() + 1);
  const auto sample = sample_frt_direct(g, rng);
  // FrtIndex::build rejects rows that do not form an FRT tree.
  EXPECT_NO_THROW((void)serve::FrtIndex::build(sample.tree));
  EXPECT_EQ(sample.tree.num_leaves(), g.num_vertices());
  EXPECT_GE(sample.tree.num_levels(), 2U);
  EXPECT_GE(sample.beta, 1.0);
  EXPECT_LT(sample.beta, 2.0);
}

TEST_P(FrtTreeBuild, DominanceHolds) {
  // dist_T ≥ dist_G for the dominating weight rule (Definition 7.1).
  const auto g = random_graph();
  Rng rng(GetParam() + 2);
  const auto sample = sample_frt_direct(g, rng);
  for (Vertex s : {0U, 13U, 29U}) {
    const auto d = dijkstra(g, s).dist;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (v == s) continue;
      EXPECT_GE(sample.tree.distance(s, v), d[v] - 1e-9)
          << "pair (" << s << ", " << v << ")";
    }
  }
}

TEST_P(FrtTreeBuild, TreeDistanceIsAMetric) {
  const auto g = random_graph();
  Rng rng(GetParam() + 3);
  const auto t = sample_frt_direct(g, rng).tree;
  for (Vertex a = 0; a < 12; ++a) {
    EXPECT_DOUBLE_EQ(t.distance(a, a), 0.0);
    for (Vertex b = 0; b < 12; ++b) {
      EXPECT_DOUBLE_EQ(t.distance(a, b), t.distance(b, a));
      if (a != b) {
        EXPECT_GT(t.distance(a, b), 0.0);
      }
      for (Vertex c = 0; c < 12; ++c) {
        EXPECT_LE(t.distance(a, b),
                  t.distance(a, c) + t.distance(c, b) + 1e-9);
      }
    }
  }
}

TEST_P(FrtTreeBuild, KhanRuleHalvesWeights) {
  const auto g = random_graph();
  Rng rng1(GetParam() + 4);
  Rng rng2(GetParam() + 4);  // identical randomness for both rules
  FrtOptions dom;
  dom.rule = FrtWeightRule::dominating;
  FrtOptions khan;
  khan.rule = FrtWeightRule::khan;
  const auto a = sample_frt_direct(g, rng1, dom);
  const auto b = sample_frt_direct(g, rng2, khan);
  for (Vertex v = 1; v < 10; ++v) {
    EXPECT_NEAR(a.tree.distance(0, v), 2.0 * b.tree.distance(0, v), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrtTreeBuild,
                         ::testing::Values(601, 602, 603, 604));

TEST(FrtTree, ExpectedStretchIsLogarithmic) {
  // [19]: E[stretch] ∈ O(log n).  With the dominating rule the constant
  // roughly doubles; 8·log2(n) is a generous non-flaky envelope for the
  // *average* expected stretch.
  Rng rng(42);
  const Vertex n = 64;
  const auto g = make_gnm(n, 160, {1.0, 4.0}, rng);
  const auto pairs = sample_pairs(g, 16, 256, rng);
  std::vector<FrtTree> trees;
  for (int t = 0; t < 24; ++t) {
    trees.push_back(sample_frt_direct(g, rng).tree);
  }
  const auto rep = measure_stretch(pairs, trees);
  EXPECT_GE(rep.min_single_ratio, 1.0 - 1e-9);  // dominance, every sample
  EXPECT_LE(rep.avg_expected_stretch, 8.0 * std::log2(n));
  EXPECT_GT(rep.avg_expected_stretch, 1.0);
}

TEST(FrtTree, WorstCaseCycleStretchStaysModerate) {
  // The cycle is the classic bad instance for deterministic tree
  // embeddings; randomisation keeps the *expected* stretch logarithmic.
  Rng rng(43);
  const Vertex n = 48;
  const auto g = make_cycle(n);
  const auto pairs = sample_pairs(g, n, 512, rng);
  std::vector<FrtTree> trees;
  for (int t = 0; t < 32; ++t) {
    trees.push_back(sample_frt_direct(g, rng).tree);
  }
  const auto rep = measure_stretch(pairs, trees);
  EXPECT_GE(rep.min_single_ratio, 1.0 - 1e-9);
  EXPECT_LE(rep.avg_expected_stretch, 10.0 * std::log2(n));
}

TEST(FrtTree, SingleVertexTree) {
  std::vector<DistanceMap> lists{DistanceMap::singleton(0, 0.0)};
  const auto order = VertexOrder::identity(1);
  const auto t = FrtTree::build(lists, order, 1.5, 1.0);
  EXPECT_NO_THROW((void)serve::FrtIndex::build(t));
  EXPECT_EQ(t.num_leaves(), 1U);
  EXPECT_DOUBLE_EQ(t.distance(0, 0), 0.0);
}

TEST(FrtTree, TwoVertexTreeDistances) {
  // Two vertices at distance 5, β = 1: leaves diverge below the scale
  // covering 5.
  auto g = Graph::from_edges(2, {{0, 1, 5.0}});
  const auto order = VertexOrder::identity(2);
  const auto le = le_lists_sequential(g, order);
  const auto t = FrtTree::build(le.lists, order, 1.0, 5.0,
                                FrtWeightRule::dominating);
  EXPECT_NO_THROW((void)serve::FrtIndex::build(t));
  const double dt = t.distance(0, 1);
  EXPECT_GE(dt, 5.0);
  // Divergence happens within a constant factor of the true distance:
  // scales are geometric, so dist_T ≤ 8·dist (dominating rule, β = 1).
  EXPECT_LE(dt, 8.0 * 5.0);
}

TEST(FrtTree, RejectsInvalidInputs) {
  std::vector<DistanceMap> lists{DistanceMap::singleton(0, 0.0)};
  const auto order = VertexOrder::identity(1);
  EXPECT_THROW((void)FrtTree::build(lists, order, 2.5, 1.0),
               std::logic_error);  // beta out of range
  EXPECT_THROW((void)FrtTree::build(lists, order, 1.0, 0.0),
               std::logic_error);  // bad dmin
  std::vector<DistanceMap> empty_list{DistanceMap{}};
  EXPECT_THROW((void)FrtTree::build(empty_list, order, 1.0, 1.0),
               std::logic_error);  // empty LE list

  // Two vertices on one leaf would read distance 0: a hint above their
  // distance, or a pseudometric's zero, is refused by name.
  const auto shared_leaf = [](const std::vector<DistanceMap>& le,
                              const VertexOrder& ord, double hint) {
    try {
      (void)FrtTree::build(le, ord, 1.5, hint);
    } catch (const CheckError& err) {
      return std::string(err.message());
    }
    return std::string("no error");
  };
  const auto path = Graph::from_edges(3, {{0, 1, 1.0}, {1, 2, 4.0}});
  const auto order3 = VertexOrder::identity(3);
  EXPECT_EQ(shared_leaf(le_lists_sequential(path, order3).lists, order3, 8.0),
            "FrtTree: vertices 0 and 1 share a leaf — dist_min_hint 8 is "
            "above their distance");
  const auto pair = Graph::from_edges(2, {{0, 1, 1.0}});
  const auto order2 = VertexOrder::identity(2);
  EXPECT_EQ(
      shared_leaf(le_lists_sequential(pair, order2).lists, order2, 100.0),
      "FrtTree: vertices 0 and 1 share a leaf — dist_min_hint 100 is "
      "above their distance");
  const std::vector<Weight> pseudo{0, 0, 2, 0, 0, 2, 2, 2, 0};
  Rng rng(8);
  try {
    (void)sample_frt_metric(pseudo, 3, 2.0, rng);
    ADD_FAILURE() << "a pseudometric's zero distance was accepted";
  } catch (const CheckError& err) {
    EXPECT_EQ(std::string(err.message()),
              "FrtTree: vertices 0 and 1 share a leaf — dist_min_hint 2 is "
              "above their distance");
  }
}

TEST(FrtTree, DisconnectedGraphIsRejected) {
  const auto g = Graph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  Rng rng(5);
  const auto order = VertexOrder::random(4, rng);
  const auto le = le_lists_sequential(g, order);
  EXPECT_THROW((void)FrtTree::build(le.lists, order, 1.0, 1.0),
               std::logic_error);
}

TEST(FrtTree, CachedDistanceMatchesPerQueryRecomputationBitForBit) {
  // distance() looks the weight sum up in the per-build LCA-level cache
  // instead of re-summing both root paths per call.  This pins its values
  // to the per-query formula (ascending Σ 2·edge_weight(l) up to the
  // divergence level) bit-for-bit, for every pair and several seeds.
  for (const std::uint64_t seed : {901ULL, 902ULL, 903ULL}) {
    Rng gr(seed);
    const auto g = make_gnm(48, 110, {1.0, 6.0}, gr);
    Rng rng(seed + 1);
    const auto sample = sample_frt_direct(g, rng);
    const auto& t = sample.tree;
    // Divergence level = LCA level, from Section 7.1's tuples over exact
    // APSP — independent of the tree's rows.
    const auto tuples = test::brute_force_tuples(g, sample.order, t);
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (Vertex v = u + 1; v < g.num_vertices(); ++v) {
        const Weight got = t.distance(u, v);
        const unsigned diverge = tuples.lca_level(u, v);
        Weight ref = 0.0;
        for (unsigned l = 0; l < diverge; ++l) {
          const Weight step = 2.0 * t.edge_weight(l);
          ref += step;
        }
        EXPECT_EQ(ref, got) << "pair " << u << "-" << v;
      }
    }
  }
}

TEST(FrtTree, ParentIdsPrecedeChildIds) {
  // FrtIndex::build's ascending pass, PathUnfolder's representative pass
  // and the apps' bottom-up walks over FrtIndex iterate ids descending as
  // a children-first order.
  Rng rng(6);
  const auto g = make_gnm(20, 40, {1.0, 2.0}, rng);
  const auto t = sample_frt_direct(g, rng).tree;
  EXPECT_EQ(t.parent(0), 0U) << "the root is node 0, its own parent";
  for (FrtTree::NodeId id = 1; id < t.num_nodes(); ++id) {
    EXPECT_LT(t.parent(id), id) << "node " << id;
  }
  // Every leaf is num_levels() − 1 strict climbs below the root.
  for (Vertex v = 0; v < t.num_leaves(); ++v) {
    const auto row = test::ancestor_row(t, v);
    for (unsigned l = 0; l + 1 < t.num_levels(); ++l) {
      EXPECT_LT(row[l + 1], row[l]) << "vertex " << v << " level " << l;
    }
  }
}

}  // namespace
}  // namespace pmte
