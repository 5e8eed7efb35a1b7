// Tests for the Baswana–Sen (2k−1)-spanner (src/spanner): subgraph
// property, stretch bound, and size behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/spanner/baswana_sen.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

struct SpannerCase {
  std::uint64_t seed;
  unsigned k;

  friend void PrintTo(const SpannerCase& c, std::ostream* os) {
    *os << "seed" << c.seed << "_k" << c.k;
  }
};

class SpannerStretch : public ::testing::TestWithParam<SpannerCase> {};

TEST_P(SpannerStretch, SubgraphAndStretch) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  const auto g = make_gnm(80, 600, {1.0, 8.0}, rng);
  const auto sp = baswana_sen_spanner(g, k, rng);
  EXPECT_TRUE(is_connected(sp.spanner));
  // Subgraph: every spanner edge exists in g with the same weight.
  for (const auto& e : sp.spanner.edge_list()) {
    EXPECT_DOUBLE_EQ(g.edge_weight(e.u, e.v), e.weight);
  }
  // Stretch ≤ 2k−1 (checked from a handful of sources).
  const double bound = 2.0 * k - 1.0;
  for (Vertex s : {0U, 17U, 55U}) {
    const auto dg = dijkstra(g, s).dist;
    const auto ds = dijkstra(sp.spanner, s).dist;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_GE(ds[v], dg[v] - 1e-9);  // subgraph distances dominate
      EXPECT_LE(ds[v], bound * dg[v] + 1e-9)
          << "pair (" << s << "," << v << ") k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpannerStretch,
    ::testing::Values(SpannerCase{801, 2}, SpannerCase{802, 2},
                      SpannerCase{803, 3}, SpannerCase{804, 3},
                      SpannerCase{805, 4}, SpannerCase{806, 5}));

TEST(Spanner, KOneReturnsGraphItself) {
  Rng rng(1);
  const auto g = make_gnm(30, 100, {1.0, 2.0}, rng);
  const auto sp = baswana_sen_spanner(g, 1, rng);
  EXPECT_EQ(sp.edges, g.num_edges());
}

TEST(Spanner, SparsifiesDenseGraphs) {
  Rng rng(2);
  const auto g = make_complete(64, {1.0, 4.0}, rng);
  const auto sp = baswana_sen_spanner(g, 2, rng);
  // K_64 has 2016 edges; a 3-spanner should use O(n^{1.5}) ≈ 512·c.
  EXPECT_LT(sp.edges, g.num_edges() / 2);
  EXPECT_TRUE(is_connected(sp.spanner));
}

TEST(Spanner, SizeScalesWithK) {
  Rng rng(3);
  const auto g = make_complete(80, {1.0, 2.0}, rng);
  Rng r1(4), r2(4);
  const auto s2 = baswana_sen_spanner(g, 2, r1);
  const auto s4 = baswana_sen_spanner(g, 4, r2);
  // Higher k buys sparser spanners (on average; generous slack).
  EXPECT_LT(static_cast<double>(s4.edges), 1.2 * s2.edges);
}

TEST(Spanner, WorksOnSparseTrees) {
  Rng rng(5);
  const auto g = make_binary_tree(63, {1.0, 2.0}, rng);
  const auto sp = baswana_sen_spanner(g, 3, rng);
  // A tree is its own unique connected subgraph: all edges must stay.
  EXPECT_EQ(sp.edges, g.num_edges());
}

// The spanner consumes sampling coins in ascending cluster order and walks
// per-vertex cluster maps in key order (std::map) — both orders are
// *specified*, not implementation-defined, so the exact output edge set is
// a pure function of (graph, seed) on every platform and standard library.
// Pin it: if someone reintroduces hash-order iteration (the pre-lint code
// iterated unordered_set/unordered_map here), this fingerprint moves.
TEST(Spanner, OutputBitsArePinnedAcrossPlatforms) {
  Rng graph_rng(42);
  const auto g = make_gnm(32, 120, {1.0, 4.0}, graph_rng);
  Rng rng(7);
  const auto sp = baswana_sen_spanner(g, 2, rng);
  const std::vector<WeightedEdge> edges = sp.spanner.edge_list();
  std::uint64_t hash = kFnv1aInit;
  for (const auto& e : edges) {
    hash = fnv1a_fold(hash, e.u);
    hash = fnv1a_fold(hash, e.v);
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof e.weight);
    std::memcpy(&bits, &e.weight, sizeof bits);
    hash = fnv1a_fold(hash, bits);
  }
  EXPECT_EQ(sp.edges, 112u);
  EXPECT_EQ(hash, 0x588dcf9266ce15cfULL) << "spanner edge fingerprint drifted";

  // Same seed, fresh RNG: bit-identical rerun.
  Rng rng2(7);
  const auto sp2 = baswana_sen_spanner(g, 2, rng2);
  EXPECT_EQ(sp2.edges, sp.edges);
  const std::vector<WeightedEdge> edges2 = sp2.spanner.edge_list();
  ASSERT_EQ(edges.size(), edges2.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& a = edges[i];
    const auto& b = edges2[i];
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    EXPECT_EQ(a.weight, b.weight);  // exact double equality, deliberately
  }
}

TEST(Spanner, RejectsKZero) {
  Rng rng(6);
  const auto g = make_path(5);
  EXPECT_THROW((void)baswana_sen_spanner(g, 0, rng), std::logic_error);
}

}  // namespace
}  // namespace pmte
