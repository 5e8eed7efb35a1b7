// Tests for the (d, ε̂)-hop-set constructions (src/hopset): the defining
// inequality (1.3), structural properties, and the hub hop set's rule for
// keeping its hub clique.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/hopset/hopset.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference/hopset.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

// Families 0–2 (path, cycle, grid) have fewest-hop shortest paths far
// longer than the hop distance to a hub, so they keep the clique.
constexpr int kLongHopFamilies = 3;

Graph hopset_family(int family) {
  switch (family) {
    case 0:
      return make_path(120, {1.0, 3.0}, Rng(1));
    case 1:
      return make_cycle(100, {0.5, 2.0}, Rng(2));
    case 2:
      return make_grid(10, 12, {1.0, 2.0}, Rng(3));
    case 3:
      return make_gnm(100, 240, {1.0, 5.0}, Rng(4));
    default:
      return make_caterpillar(40, 2, 4.0, 1.0);
  }
}

/// The default hitting window ⌈√(n·ln n)⌉.
unsigned default_window(Vertex n) {
  return static_cast<unsigned>(std::ceil(std::sqrt(
      static_cast<double>(n) * std::log(std::max<double>(n, 2)))));
}

/// The draws build_hub_hopset takes from its Rng at default parameters:
/// one hub coin per vertex, plus a fallback hub when no coin lands.
void replay_hub_draws(Vertex n, Rng& rng) {
  const double ln_n = std::log(std::max<double>(n, 2));
  const double p = std::min(1.0, 2.0 * ln_n / default_window(n));
  bool any = false;
  for (Vertex v = 0; v < n; ++v) any = rng.flip(p) || any;
  if (!any) (void)rng.below(n);
}

/// Builds the default hub hop set of `g` from Rng(seed) and checks what
/// holds whether or not the clique is kept: the caller's Rng ends where a
/// replay of the hub draws alone ends, and G' is exact within d hops.  A
/// dropped clique must also certify d ≥ SPD(G).  Returns the hop set.
HopSet check_hub_hopset(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const auto hs = build_hub_hopset(g, {}, rng);
  Rng replay(seed);
  replay_hub_draws(g.num_vertices(), replay);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rng(), replay()) << "draw " << i;
  EXPECT_GT(hs.num_hubs, 0U);
  if (hs.edges.empty()) {
    EXPECT_GE(hs.d, shortest_path_diameter(g).spd);
  }
  // ε̂ = 0: d-hop distances in G' must equal exact distances (w.h.p.).
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, g.num_vertices(), rng), 1.0);
  return hs;
}

class HopsetFamilies : public ::testing::TestWithParam<int> {
 protected:
  Graph family_graph() { return hopset_family(GetParam()); }
};

TEST_P(HopsetFamilies, HubHopSetIsExact) {
  const auto hs = check_hub_hopset(family_graph(), 77);
  EXPECT_GE(hs.d, 2U);
}

TEST_P(HopsetFamilies, HopSetNeverShortensDistances) {
  const auto g = family_graph();
  Rng rng(78);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto gp = hs.apply(g);
  const auto before = dijkstra(g, 0).dist;
  const auto after = dijkstra(gp, 0).dist;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(after[v], before[v], 1e-9) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, HopsetFamilies,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Hopset, ExactHopSetHasHopBoundOne) {
  const auto g = make_path(40, {1.0, 2.0}, Rng(5));
  const auto hs = build_exact_hopset(g);
  EXPECT_EQ(hs.d, 1U);
  Rng rng(6);
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, g.num_vertices(), rng), 1.0);
  // One shortcut per connected pair (duplicates of graph edges merge away
  // when applied).
  EXPECT_EQ(hs.edges.size(), static_cast<std::size_t>(40) * 39 / 2);
}

TEST(Hopset, TrivialHopSetAddsNothing) {
  // G itself is an (n − 1, 0)-hop set: no edges, d = n − 1.
  const auto g = make_cycle(30);
  HopSet hs;
  hs.d = g.num_vertices() - 1;
  Rng rng(7);
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, 5, rng), 1.0);
}

TEST(Hopset, WindowParameterControlsHopBound) {
  const auto g = make_path(200);
  Rng rng(8);
  HubHopSetParams params;
  params.window = 10;
  const auto hs = build_hub_hopset(g, params, rng);
  EXPECT_EQ(hs.d, 20U);
  // Dense sampling at window 10: expect plenty of hubs on a 200-path.
  EXPECT_GT(hs.num_hubs, 20U);
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, 20, rng), 1.0);
}

TEST(Hopset, HopDistancesActuallyShrink) {
  // The point of the exercise: d-hop distances in G' reach what needs
  // SPD(G) hops in G.
  const auto g = make_path(256);
  Rng rng(10);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto gp = hs.apply(g);
  const auto hop_limited = bellman_ford_hops(gp, 0, hs.d);
  EXPECT_TRUE(is_finite(hop_limited[255]));
  EXPECT_DOUBLE_EQ(hop_limited[255], 255.0);
  // Without the hop set, d hops see only a prefix.
  const auto plain = bellman_ford_hops(g, 0, hs.d);
  EXPECT_FALSE(is_finite(plain[255]));
}

TEST(Hopset, LongHopFamiliesKeepExactClique) {
  for (int family = 0; family < kLongHopFamilies; ++family) {
    const auto g = hopset_family(family);
    Rng rng(79);
    const auto hs = build_hub_hopset(g, {}, rng);
    EXPECT_EQ(hs.d, 2 * default_window(g.num_vertices()))
        << "family " << family;
    EXPECT_EQ(hs.edges.size(), hs.num_hubs * (hs.num_hubs - 1) / 2)
        << "family " << family;
    // Shortcut weights are the plain Dijkstra distances, bit for bit.
    Vertex source = no_vertex();
    std::vector<Weight> dist;
    for (const auto& e : hs.edges) {
      if (e.u != source) dist = dijkstra(g, source = e.u).dist;
      const Weight ref = dist[e.v];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(e.weight),
                std::bit_cast<std::uint64_t>(ref))
          << "family " << family << " shortcut {" << e.u << ", " << e.v
          << "}";
    }
  }
}

TEST(Hopset, SparseGnmDropsClique) {
  // build_oracle's input shape: every fewest-hop shortest path is short,
  // so the clique could not even halve hop distances.
  const Vertex n = 1024;
  const auto g = make_gnm(n, 3 * std::size_t{n}, {1.0, 4.0}, Rng(11));
  Rng rng(12);
  const auto hs = build_hub_hopset(g, {}, rng);
  EXPECT_TRUE(hs.edges.empty());
  EXPECT_GT(hs.num_hubs, 0U);
  EXPECT_GE(hs.d, shortest_path_diameter(g).spd);
  EXPECT_LT(hs.d, 2 * default_window(n));
  EXPECT_DOUBLE_EQ(measure_hopset_stretch(g, hs, 32, rng), 1.0);
}

TEST(Hopset, RuleOverServeCorpus) {
  // The serving corpus mixes families that keep the clique (grid, cycle,
  // cliquechain) and families that drop it (gnm, powerlaw).
  std::size_t dropped = 0;
  std::size_t kept = 0;
  for (const auto& cse : test::serve_graph_corpus(50, 0xD15C0)) {
    SCOPED_TRACE(cse.name);
    const auto hs = check_hub_hopset(cse.graph, cse.seed);
    ++(hs.edges.empty() ? dropped : kept);
  }
  EXPECT_GE(dropped, 10U);
  EXPECT_GE(kept, 10U);
}

}  // namespace
}  // namespace pmte
