// Randomized FRT-embedding property tests (Sections 7.1–7.4) over the
// shared small-graph corpus: on ~50 seeded connected graphs the sampled
// tree metric must dominate the graph metric (the `dominating` weight rule
// of src/frt/frt_tree.hpp guarantees dist_T ≥ dist_G deterministically),
// every per-sample stretch must be finite, and the scale hierarchy must shrink
// geometrically (ball radii double per level, cluster counts are
// monotone, and the number of levels is logarithmic in the weight spread).
#include <gtest/gtest.h>

#include <cmath>

#include "src/frt/pipelines.hpp"
#include "src/serve/frt_index.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

constexpr std::size_t kCorpusSize = 50;
constexpr std::uint64_t kCorpusSeed = 7001;

struct PairStats {
  double mean_stretch = 0.0;
  double max_stretch = 0.0;
};

/// Check dist_T ≥ dist_G and finiteness over all pairs; returns stretch
/// aggregates.  `slack` absorbs the floating-point associativity of the
/// oracle pipeline's scaled distances.
PairStats check_dominance(const Graph& g, const FrtSample& s,
                          const std::vector<Weight>& apsp,
                          const char* what, double slack = 1e-9) {
  const Vertex n = g.num_vertices();
  PairStats stats;
  std::size_t pairs = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Weight dg = apsp[static_cast<std::size_t>(u) * n + v];
      EXPECT_TRUE(is_finite(dg)) << what << ": corpus graph disconnected";
      const Weight dt = s.tree.distance(u, v);
      EXPECT_TRUE(is_finite(dt))
          << what << ": infinite tree distance " << u << "-" << v;
      if (!is_finite(dg) || !is_finite(dt)) continue;
      EXPECT_GE(dt, dg * (1.0 - slack))
          << what << ": tree fails to dominate pair " << u << "-" << v;
      const double stretch = dt / dg;
      stats.mean_stretch += stretch;
      stats.max_stretch = std::max(stats.max_stretch, stretch);
      ++pairs;
    }
  }
  if (pairs > 0) stats.mean_stretch /= static_cast<double>(pairs);
  return stats;
}

TEST(FrtProperties, DirectPipelineDominatesGraphMetric) {
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    EXPECT_NO_THROW((void)serve::FrtIndex::build(s.tree)) << c.name;
    const auto apsp = exact_apsp(c.graph);
    const auto stats = check_dominance(c.graph, s, apsp, c.name.c_str());
    // Expected stretch is O(log n) (Theorem 7.1 via [16]); a single sample
    // fluctuates, so only a generous per-sample mean bound is asserted —
    // failures here mean the embedding, not bad luck (seeds are fixed).
    const double log_n =
        std::log(static_cast<double>(c.graph.num_vertices()));
    EXPECT_LT(stats.mean_stretch, 16.0 * (1.0 + log_n)) << c.name;
    EXPECT_GE(stats.max_stretch, 1.0 - 1e-9) << c.name;
  }
}

TEST(FrtProperties, OraclePipelineDominatesGraphMetric) {
  // The oracle pipeline embeds H whose distances dominate G's (every
  // H-edge weighs (1+ε̂)^{≥0}·dist^d ≥ dist), so dominance carries over.
  // A corpus slice keeps the hop-set construction affordable.
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (std::size_t i = 0; i < corpus.size(); i += 7) {
    const auto& c = corpus[i];
    Rng rng(c.seed);
    const auto s = sample_frt_oracle(c.graph, rng);
    EXPECT_NO_THROW((void)serve::FrtIndex::build(s.tree)) << c.name;
    const auto apsp = exact_apsp(c.graph);
    (void)check_dominance(c.graph, s, apsp, c.name.c_str(), 1e-6);
  }
}

TEST(FrtProperties, LevelsShrinkGeometrically) {
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const Vertex n = c.graph.num_vertices();

    // Ball radii double per level...
    for (unsigned level = 0; level + 1 < s.tree.num_levels(); ++level) {
      EXPECT_DOUBLE_EQ(s.tree.scale(level + 1), 2.0 * s.tree.scale(level))
          << c.name;
    }

    // ...cluster counts shrink monotonically from n leaves to one root...
    std::vector<std::size_t> per_level(s.tree.num_levels(), 0);
    for (const unsigned level : test::node_levels(s.tree)) {
      ++per_level[level];
    }
    EXPECT_EQ(per_level.front(), static_cast<std::size_t>(n)) << c.name;
    EXPECT_EQ(per_level.back(), 1U) << c.name;
    for (std::size_t i = 0; i + 1 < per_level.size(); ++i) {
      EXPECT_LE(per_level[i + 1], per_level[i]) << c.name << ", level " << i;
    }

    // ...and the hierarchy height is logarithmic in the distance spread
    // (scales are geometric, so ⌈log₂(max/min)⌉ + O(1) levels suffice).
    const auto apsp = exact_apsp(c.graph);
    Weight dmin = inf_weight();
    Weight dmax = 0.0;
    for (const Weight d : apsp) {
      if (d > 0.0 && is_finite(d)) {
        dmin = std::min(dmin, d);
        dmax = std::max(dmax, d);
      }
    }
    const double spread_levels = std::ceil(std::log2(dmax / dmin));
    EXPECT_LE(static_cast<double>(s.tree.num_levels()), spread_levels + 4.0)
        << c.name;
  }
}

TEST(FrtProperties, SamplesAreSeedDeterministic) {
  const auto corpus = test::small_graph_corpus(6, kCorpusSeed + 1);
  for (const auto& c : corpus) {
    Rng rng_a(c.seed);
    Rng rng_b(c.seed);
    const auto a = sample_frt_direct(c.graph, rng_a);
    const auto b = sample_frt_direct(c.graph, rng_b);
    ASSERT_EQ(a.tree.num_nodes(), b.tree.num_nodes()) << c.name;
    for (Vertex u = 0; u < c.graph.num_vertices(); ++u) {
      for (Vertex v = u + 1; v < c.graph.num_vertices(); ++v) {
        EXPECT_EQ(a.tree.distance(u, v), b.tree.distance(u, v)) << c.name;
      }
    }
  }
}

}  // namespace
}  // namespace pmte
