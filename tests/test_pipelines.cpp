// Integration tests: the four FRT sampling pipelines of Section 7.4
// produce comparable, valid embeddings end to end.  Graphs come from the
// shared tests/support fixture library so families, sizes, and seeds stay
// consistent across suites.
#include <gtest/gtest.h>

#include <cmath>

#include "src/frt/pipelines.hpp"
#include "src/serve/frt_index.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference/shortest_paths.hpp"
#include "tests/support/reference/stretch.hpp"

namespace pmte {
namespace {

class Pipelines : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph() { return test::support_graph("gnm", 56, GetParam()); }
};

TEST_P(Pipelines, AllFourProduceDominatingTrees) {
  const auto g = random_graph();
  Rng rng(GetParam() + 1);
  const auto apsp = exact_apsp(g);

  std::vector<FrtSample> samples;
  samples.push_back(sample_frt_direct(g, rng));
  samples.push_back(sample_frt_oracle(g, rng));
  samples.push_back(
      sample_frt_metric(apsp, g.num_vertices(), g.min_edge_weight(), rng));
  samples.push_back(sample_frt_sequential(g, rng));

  const auto pairs = sample_pairs(g, 12, 120, rng);
  for (const auto& s : samples) {
    EXPECT_NO_THROW((void)serve::FrtIndex::build(s.tree));
    EXPECT_EQ(s.tree.num_leaves(), g.num_vertices());
    std::vector<FrtTree> one;
    one.push_back(s.tree);
    const auto rep = measure_stretch(pairs, one);
    EXPECT_GE(rep.min_single_ratio, 1.0 - 1e-9) << "pipeline not dominating";
  }
}

TEST_P(Pipelines, OracleNeedsFarFewerIterations) {
  // The paper's headline: polylog iterations instead of SPD(G).
  Rng rng(GetParam() + 2);
  const Vertex n = 192;
  const auto g = test::support_graph("path", n, GetParam() + 2);
  auto direct = sample_frt_direct(g, rng);
  auto oracle = sample_frt_oracle(g, rng);
  EXPECT_GE(direct.iterations, n / 2 - 4);
  const double log2n = std::log2(static_cast<double>(n));
  EXPECT_LE(oracle.iterations, static_cast<unsigned>(4.0 * log2n * log2n));
  EXPECT_GT(oracle.hopset_edges, 0U);
}

TEST_P(Pipelines, ListLengthStaysLogarithmic) {
  const auto g = random_graph();
  Rng rng(GetParam() + 3);
  const auto s = sample_frt_oracle(g, rng);
  const double ln_n = std::log(static_cast<double>(g.num_vertices()));
  EXPECT_LE(static_cast<double>(s.max_list_length), 10.0 * ln_n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pipelines,
                         ::testing::Values(1201, 1202, 1203));

TEST(Pipelines, OracleStretchComparableToDirect) {
  // Corollary 7.10: the oracle pipeline pays only (1+o(1)) extra stretch.
  const auto g = test::support_graph("grid", 72, 7);  // 9×9
  const Vertex n = g.num_vertices();
  Rng rng(7);
  const auto pairs = sample_pairs(g, 16, 200, rng);
  std::vector<FrtTree> direct_trees, oracle_trees;
  // Share one simulated graph across oracle samples (fresh β/order each).
  const auto hopset = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(
      g, hopset, resolve_eps_hat(0.0, g.num_vertices()), rng);
  for (int t = 0; t < 12; ++t) {
    direct_trees.push_back(sample_frt_direct(g, rng).tree);
    oracle_trees.push_back(sample_frt_oracle_on(h, rng).tree);
  }
  const auto rd = measure_stretch(pairs, direct_trees);
  const auto ro = measure_stretch(pairs, oracle_trees);
  EXPECT_GE(ro.min_single_ratio, 1.0 - 1e-9);
  // Same order of magnitude (sampling noise allowance).
  EXPECT_LE(ro.avg_expected_stretch, 2.0 * rd.avg_expected_stretch + 2.0);
  EXPECT_LE(ro.avg_expected_stretch, 8.0 * std::log2(n));
}

TEST(Pipelines, EpsHatResolution) {
  EXPECT_DOUBLE_EQ(resolve_eps_hat(0.25, 100), 0.25);
  EXPECT_DOUBLE_EQ(resolve_eps_hat(0.0, 1024), 0.01);  // 1/ceil(log2 n)^2
  EXPECT_GT(resolve_eps_hat(0.0, 3), 0.0);
  // The induced distortion bound stays 1 + o(1): (1+eps)^(2 log n) small.
  const double eps = resolve_eps_hat(0.0, 1024);
  EXPECT_LT(std::pow(1.0 + eps, 2.0 * 10.0), 1.25);
}

TEST(Pipelines, WorkAccountingMonotonicInSize) {
  const auto small = test::support_graph("gnm", 32, 8);
  const auto large = test::support_graph("gnm", 128, 8);
  Rng rng(8);
  auto ws = sample_frt_direct(small, rng).work;
  auto wl = sample_frt_direct(large, rng).work;
  EXPECT_GT(ws, 0U);
  EXPECT_GT(wl, ws);
}

TEST(Pipelines, DirectPipelineValidOverSupportCorpus) {
  // Corpus smoke: every family/size the shared fixtures produce yields a
  // structurally valid dominating embedding (detailed dominance checks
  // live in test_frt_properties; this pins the fixtures themselves).
  for (const auto& c : test::small_graph_corpus(16, 1204)) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    EXPECT_NO_THROW((void)serve::FrtIndex::build(s.tree)) << c.name;
    EXPECT_EQ(s.tree.num_leaves(), c.graph.num_vertices()) << c.name;
  }
}

}  // namespace
}  // namespace pmte
