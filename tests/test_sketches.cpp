// Tests for LE-list distance sketches (src/apps/distance_sketches) and for
// an FrtEnsemble's min policy as a sketch.
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/distance_sketches.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/workloads.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

class Sketches : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sketches, EstimatesAreUpperBoundsAndFinite) {
  Rng rng(GetParam());
  const auto g = make_gnm(60, 150, {1.0, 5.0}, rng);
  const auto sk = DistanceSketches::build(g, 4, rng);
  const auto apsp = exact_apsp(g);
  for (Vertex u = 0; u < 60; u += 7) {
    for (Vertex v = 0; v < 60; v += 5) {
      const Weight est = sk.query(u, v);
      const Weight exact = apsp[static_cast<std::size_t>(u) * 60 + v];
      if (u == v) {
        EXPECT_DOUBLE_EQ(est, 0.0);
        continue;
      }
      EXPECT_TRUE(is_finite(est)) << "rank-0 vertex is in every list";
      EXPECT_GE(est, exact - 1e-9) << "sketch underestimated";
      // Symmetric by construction.
      EXPECT_DOUBLE_EQ(est, sk.query(v, u));
    }
  }
}

TEST_P(Sketches, MorePermutationsNeverHurt) {
  Rng rng(GetParam() + 10);
  const auto g = make_grid(8, 8, {1.0, 3.0}, rng);
  // Build 1-permutation and 6-permutation sketches from the same stream:
  // the larger sketch contains more chances to hit a good common vertex.
  Rng r1(GetParam() + 11), r2(GetParam() + 11);
  const auto small = DistanceSketches::build(g, 1, r1);
  const auto large = DistanceSketches::build(g, 6, r2);
  const auto apsp = exact_apsp(g);
  double err_small = 0.0, err_large = 0.0;
  std::size_t pairs = 0;
  for (Vertex u = 0; u < 64; u += 3) {
    for (Vertex v = u + 1; v < 64; v += 5) {
      const Weight exact = apsp[static_cast<std::size_t>(u) * 64 + v];
      err_small += small.query(u, v) / exact;
      err_large += large.query(u, v) / exact;
      ++pairs;
    }
  }
  EXPECT_LE(err_large / static_cast<double>(pairs),
            err_small / static_cast<double>(pairs) + 1e-9);
}

TEST_P(Sketches, StretchStaysModerate) {
  // LE-list sketches give O(log n)-ish multiplicative error in practice.
  Rng rng(GetParam() + 20);
  const auto g = make_gnm(100, 260, {1.0, 4.0}, rng);
  const auto sk = DistanceSketches::build(g, 6, rng);
  const auto apsp = exact_apsp(g);
  double worst = 1.0;
  for (Vertex u = 0; u < 100; u += 3) {
    for (Vertex v = u + 1; v < 100; v += 7) {
      const Weight exact = apsp[static_cast<std::size_t>(u) * 100 + v];
      worst = std::max(worst, sk.query(u, v) / exact);
    }
  }
  EXPECT_LE(worst, 30.0);  // generous non-flaky envelope (log2 n ≈ 6.6)
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sketches,
                         ::testing::Values(1401, 1402, 1403));

TEST(Sketches, SizeIsLogarithmicPerPermutation) {
  Rng rng(1);
  const auto g = make_gnm(400, 1200, {1.0, 2.0}, rng);
  const auto sk = DistanceSketches::build(g, 3, rng);
  // 3 permutations × ~ln(400) ≈ 18 entries expected.
  EXPECT_LT(sk.average_entries_per_vertex(),
            3.0 * 3.0 * std::log(400.0));
  EXPECT_EQ(sk.permutations(), 3U);
}

TEST(Sketches, RejectsBadInput) {
  Rng rng(2);
  const auto g = make_path(5);
  EXPECT_THROW((void)DistanceSketches::build(g, 0, rng), std::logic_error);
  const auto sk = DistanceSketches::build(g, 1, rng);
  EXPECT_THROW((void)sk.query(0, 9), std::logic_error);
  EXPECT_THROW((void)DistanceSketches::from_lists({}, 5), std::logic_error);
}

// --- Sketches served by an FrtEnsemble under the min policy -------------

/// An ensemble of k trees over g from one master seed.
serve::FrtEnsemble build_ensemble(const Graph& g, std::size_t k,
                                  std::uint64_t seed,
                                  serve::EnsembleOptions opts = {}) {
  opts.trees = k;
  return serve::FrtEnsemble::build(g, seed, opts);
}

constexpr auto kMin = serve::AggregatePolicy::min;

TEST(MinPolicySketches, BitIdenticalToFoldingFrtTreeDistances) {
  // The ensemble's answers are served through flat indices; they must
  // equal — bit for bit — the min over FrtTree::distance of the same k
  // trees (re-sampled here with the ensemble's split-seed scheme).
  const auto corpus = test::small_graph_corpus(50, 7001);
  for (const auto& c : corpus) {
    const std::size_t k = 3;
    serve::EnsembleOptions opts;
    opts.pipeline = serve::EnsemblePipeline::direct;
    const auto ensemble = build_ensemble(c.graph, k, c.seed, opts);
    std::vector<FrtTree> trees;
    for (std::size_t t = 0; t < k; ++t) {
      Rng rng(split_seed(c.seed, 1 + t));
      trees.push_back(sample_frt_direct(c.graph, rng).tree);
    }
    const Vertex n = c.graph.num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u; v < n; ++v) {
        Weight ref = inf_weight();
        for (const auto& t : trees) ref = std::min(ref, t.distance(u, v));
        EXPECT_EQ(ensemble.query(u, v, kMin), ref)
            << c.name << " pair " << u << "-" << v;
      }
    }
  }
}

TEST(MinPolicySketches, EstimatesAreUpperBoundsAndTightenWithTrees) {
  Rng grng(61);
  const auto g = make_gnm(80, 200, {1.0, 4.0}, grng);
  const auto small = build_ensemble(g, 1, 777);
  const auto large = build_ensemble(g, 6, 777);
  const auto apsp = exact_apsp(g);
  for (Vertex u = 0; u < 80; u += 3) {
    for (Vertex v = 0; v < 80; v += 5) {
      const Weight exact = apsp[static_cast<std::size_t>(u) * 80 + v];
      if (u == v) {
        EXPECT_DOUBLE_EQ(large.query(u, v, kMin), 0.0);
        continue;
      }
      // Dominating trees → upper bounds; tree 0 is shared, so more trees
      // can only tighten the min.
      EXPECT_GE(large.query(u, v, kMin), exact - 1e-9);
      EXPECT_LE(large.query(u, v, kMin), small.query(u, v, kMin));
      EXPECT_DOUBLE_EQ(large.query(u, v, kMin), large.query(v, u, kMin));
    }
  }
}

TEST(MinPolicySketches, BatchMatchesPointQueriesAndThreadDeterministic) {
  const auto corpus = test::serve_graph_corpus(2, 925);
  const int saved_threads = num_threads();
  for (const auto& c : corpus) {
    serve::EnsembleOptions opts;
    opts.pipeline = serve::EnsemblePipeline::direct;
    const auto ensemble = build_ensemble(c.graph, 4, c.seed, opts);
    Rng wrng(c.seed + 13);
    serve::WorkloadOptions wopts;
    wopts.pairs = 1500;
    const auto pairs = serve::make_workload(
        c.graph, serve::WorkloadKind::zipf, wopts, wrng);
    std::vector<Weight> reference;
    const auto ref = ensemble.query_batch(pairs, kMin, reference);
    EXPECT_EQ(ref.pairs, pairs.size()) << c.name;
    EXPECT_EQ(ref.tree_lookups, pairs.size() * ensemble.num_trees())
        << c.name;
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(reference[i],
                ensemble.query(pairs[i].first, pairs[i].second, kMin))
          << c.name;
    }
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      std::vector<Weight> out;
      const auto st = ensemble.query_batch(pairs, kMin, out);
      EXPECT_EQ(out, reference) << c.name << " at " << threads;
      EXPECT_EQ(st.tree_lookups, ref.tree_lookups) << c.name;
    }
    set_num_threads(saved_threads);
  }
}

TEST(MinPolicySketches, HotPairCacheKeepsValuesAndSavesLookups) {
  const auto corpus = test::serve_graph_corpus(2, 926);
  for (const auto& c : corpus) {
    serve::EnsembleOptions opts;
    opts.pipeline = serve::EnsemblePipeline::direct;
    const auto ensemble = build_ensemble(c.graph, 4, c.seed, opts);
    Rng wrng(c.seed + 29);
    serve::WorkloadOptions wopts;
    wopts.pairs = 3000;
    const auto pairs = serve::make_workload(
        c.graph, serve::WorkloadKind::zipf, wopts, wrng);
    std::vector<Weight> plain;
    const auto ref = ensemble.query_batch(pairs, kMin, plain);
    serve::HotPairCache cache(4096);
    std::vector<Weight> cached;
    const auto st = ensemble.query_batch(pairs, kMin, cached, &cache);
    EXPECT_EQ(cached, plain) << c.name;
    EXPECT_GT(st.cache_hits, 0U) << c.name << " (zipf repeats pairs)";
    EXPECT_LT(st.tree_lookups, ref.tree_lookups) << c.name;
  }
}

TEST(Sketches, WorksWithOraclePipelineLists) {
  // The sketches can be built from any LE-list pipeline, including the
  // oracle pipeline on H — distances are then H-distances (≥ G-distances).
  Rng rng(3);
  const auto g = make_gnm(40, 90, {1.0, 3.0}, rng);
  const auto hopset = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(g, hopset, 0.02, rng);
  std::vector<LeListsResult> runs;
  for (int t = 0; t < 2; ++t) {
    const auto order = VertexOrder::random(40, rng);
    runs.push_back(le_lists_oracle(h, order));
  }
  const auto sk = DistanceSketches::from_lists(std::move(runs), 40);
  const auto exact = dijkstra(g, 0).dist;
  for (Vertex v = 1; v < 40; ++v) {
    EXPECT_GE(sk.query(0, v), exact[v] - 1e-9);
  }
}

}  // namespace
}  // namespace pmte
