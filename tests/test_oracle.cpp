// The oracle equivalence tests (Section 5): simulating an MBF-like
// algorithm on the *implicit* H through the decomposition of Lemma 5.1
// must produce exactly what the generic engine computes on the explicitly
// materialised H.  This validates Lemma 5.1, Equation (5.9) and the
// intermediate-filtering argument end to end.
//
// The level-reuse differential tests additionally pin the reuse pipeline
// (Gauss–Seidel sweeps, per-level caches, warm restarts) to the Jacobi
// reference of tests/support/jacobi_oracle.hpp bit for bit: both are fair
// monotone iterations of the same per-level operators, so their fixpoints
// must coincide exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/mbf/algebras.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/parallel/counters.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/jacobi_oracle.hpp"
#include "tests/support/reference.hpp"
#include "tests/support/reference/simulated_graph.hpp"

namespace pmte {
namespace {

SimulatedGraph make_h(const Graph& g, double eps_hat, std::uint64_t seed) {
  return test::make_test_simgraph(g, seed, /*exact_hopset=*/true, eps_hat);
}

class OracleEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleEquivalence, LeListsMatchExplicitH) {
  Rng rng(GetParam());
  const auto g = make_gnm(40, 90, {1.0, 4.0}, rng);
  // ε̂ = 0 keeps all level scales exactly 1.0, so floating-point results
  // on the implicit and explicit sides are bit-identical.
  const auto h = make_h(g, 0.0, GetParam() + 1);
  const auto explicit_h = materialize(h, true);
  const auto order = VertexOrder::random(40, rng);
  const LeListAlgebra alg;

  auto via_oracle = oracle_run(h, alg, le_initial_state(order), 64);
  auto via_engine = mbf_run(explicit_h, alg, le_initial_state(order), 64);
  ASSERT_TRUE(via_oracle.reached_fixpoint);
  ASSERT_TRUE(via_engine.reached_fixpoint);
  for (Vertex v = 0; v < 40; ++v) {
    EXPECT_EQ(via_oracle.states[v], via_engine.states[v]) << "vertex " << v;
  }
}

TEST_P(OracleEquivalence, LeListsMatchWithPenalties) {
  Rng rng(GetParam() + 50);
  const auto g = make_gnm(32, 70, {1.0, 3.0}, rng);
  const double eps = 0.25;
  const auto h = make_h(g, eps, GetParam() + 51);
  const auto explicit_h = materialize(h, true);
  const auto order = VertexOrder::random(32, rng);
  const LeListAlgebra alg;

  auto via_oracle = oracle_run(h, alg, le_initial_state(order), 64);
  auto via_engine = mbf_run(explicit_h, alg, le_initial_state(order), 64);
  ASSERT_TRUE(via_oracle.reached_fixpoint);
  for (Vertex v = 0; v < 32; ++v) {
    // Same key sets; distances agree up to FP association differences
    // (scale·(a+b) vs scale·a + scale·b).
    ASSERT_EQ(via_oracle.states[v].size(), via_engine.states[v].size())
        << "vertex " << v;
    EXPECT_TRUE(test::approx_equal(via_oracle.states[v],
                                   via_engine.states[v], 1e-9))
        << "vertex " << v;
  }
}

TEST_P(OracleEquivalence, SourceDetectionMatchesExplicitH) {
  Rng rng(GetParam() + 100);
  const auto g = make_gnm(36, 80, {1.0, 5.0}, rng);
  const auto h = make_h(g, 0.0, GetParam() + 101);
  const auto explicit_h = materialize(h, true);
  SourceDetectionAlgebra alg{.k = 4, .max_dist = inf_weight()};
  std::vector<DistanceMap> x0(36);
  for (Vertex s : {0U, 9U, 20U, 33U}) x0[s] = DistanceMap::singleton(s, 0.0);

  auto via_oracle = oracle_run(h, alg, x0, 64);
  auto via_engine = mbf_run(explicit_h, alg, x0, 64);
  ASSERT_TRUE(via_oracle.reached_fixpoint);
  for (Vertex v = 0; v < 36; ++v) {
    EXPECT_EQ(via_oracle.states[v], via_engine.states[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEquivalence,
                         ::testing::Values(401, 402, 403, 404, 405));

TEST(Oracle, ForestFireOnHMatchesExplicit) {
  // Section 9 queries the oracle with the forest-fire algebra to compute
  // dist(·, S, H) during candidate sampling — exercise that combination.
  Rng rng(21);
  const auto g = make_gnm(30, 64, {1.0, 3.0}, rng);
  const auto h = make_h(g, 0.0, 22);
  const auto explicit_h = materialize(h, true);
  ScalarDistanceAlgebra alg;  // unbounded radius
  std::vector<Weight> x0(30, inf_weight());
  x0[4] = 0.0;
  x0[17] = 0.0;
  auto via_oracle = oracle_run(h, alg, x0, 64);
  auto via_engine = mbf_run(explicit_h, alg, x0, 64);
  ASSERT_TRUE(via_oracle.reached_fixpoint);
  for (Vertex v = 0; v < 30; ++v) {
    EXPECT_DOUBLE_EQ(via_oracle.states[v], via_engine.states[v])
        << "vertex " << v;
  }
}

TEST(Oracle, HopBoundGreaterThanOne) {
  // A hub hop set with a real window: the oracle must still match the
  // explicit H built from true d-hop distances.  Integer weights keep the
  // two sides' sums bit-identical: multi-hop H-paths associate additions
  // differently (whole-shortcut sums vs per-edge accumulation).
  Rng rng(7);
  auto g = make_path(48);
  {
    auto edges = g.edge_list();
    for (auto& e : edges) e.weight = std::floor(rng.uniform(1.0, 4.0));
    g = Graph::from_edges(48, std::move(edges));
  }
  HubHopSetParams params;
  params.window = 4;
  const auto hs = build_hub_hopset(g, params, rng);
  const auto h = build_simulated_graph(g, hs, 0.0, rng);
  const auto explicit_h = materialize(h, true);  // d-hop Bellman-Ford
  const auto order = VertexOrder::random(48, rng);
  const LeListAlgebra alg;
  auto via_oracle = oracle_run(h, alg, le_initial_state(order), 128);
  auto via_engine = mbf_run(explicit_h, alg, le_initial_state(order), 128);
  ASSERT_TRUE(via_oracle.reached_fixpoint);
  for (Vertex v = 0; v < 48; ++v) {
    EXPECT_EQ(via_oracle.states[v], via_engine.states[v]) << "vertex " << v;
  }
}

TEST(Oracle, StatsAreAccounted) {
  Rng rng(8);
  const auto g = make_gnm(24, 50, {1.0, 2.0}, rng);
  const auto h = make_h(g, 0.0, 9);
  const LeListAlgebra alg;
  const auto order = VertexOrder::random(24, rng);
  // The reference (Jacobi) semantics of Equation (5.9): every level runs
  // every H-iteration, at most d and at least one G'-iteration each.
  OracleStats ref;
  (void)test::jacobi_oracle_run(h, alg, le_initial_state(order), 64, &ref);
  EXPECT_TRUE(ref.reached_fixpoint);
  EXPECT_GT(ref.h_iterations, 0U);
  EXPECT_EQ(ref.levels_full, ref.h_iterations * (h.max_level() + 1));
  EXPECT_EQ(ref.levels_skipped + ref.levels_warm, 0U);
  EXPECT_LE(ref.base_iterations,
            ref.h_iterations * h.hop_bound() * (h.max_level() + 1));
  EXPECT_GE(ref.base_iterations, ref.h_iterations * (h.max_level() + 1));

  // With reuse, every (sweep, level) pair is accounted exactly once.
  OracleStats reuse;
  (void)oracle_run(h, alg, le_initial_state(order), 64, &reuse);
  EXPECT_TRUE(reuse.reached_fixpoint);
  EXPECT_EQ(reuse.levels_skipped + reuse.levels_warm + reuse.levels_full,
            reuse.h_iterations * (h.max_level() + 1));
  EXPECT_LE(reuse.base_iterations, ref.base_iterations);
}

TEST(Oracle, OneVertexTopLevelMakesNoRelaxations) {
  // P_λ keeps only V_λ, so a level whose V_λ is one vertex u never changes
  // x: whatever it derives is dominated at u.  Bounded by u's own list,
  // such a level seeds nothing and makes no relaxation.  So the oracle
  // relaxes exactly as often with u alone on level 1 as with every vertex
  // on level 0 (ε̂ = 0: both levels weigh G' alike), and reaches the same
  // lists.  u is the vertex of largest degree, whose unbounded runs would
  // flood G'.
  Rng rng(9100);
  const Vertex n = 64;
  const auto g = make_gnm(n, 192, {1.0, 5.0}, rng);
  Vertex hub = 0;
  for (Vertex v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  std::vector<unsigned> levels(n, 0);
  const SimulatedGraph flat(g, n - 1, 0.0, LevelAssignment::from_levels(levels));
  levels[hub] = 1;
  const SimulatedGraph top(g, n - 1, 0.0, LevelAssignment::from_levels(levels));
  const auto order = VertexOrder::random(n, rng);

  const WorkDepthScope flat_scope;
  const auto without = le_lists_oracle(flat, order);
  const std::uint64_t flat_relax = flat_scope.relaxations_delta();
  const WorkDepthScope top_scope;
  const auto with_top = le_lists_oracle(top, order);
  const std::uint64_t top_relax = top_scope.relaxations_delta();

  ASSERT_TRUE(without.converged);
  ASSERT_TRUE(with_top.converged);
  EXPECT_EQ(with_top.lists, without.lists);
  EXPECT_EQ(with_top.iterations, without.iterations);
  // Level 1 was accounted in every sweep, and started at least once.
  EXPECT_EQ(with_top.levels_full + with_top.levels_warm +
                with_top.levels_skipped,
            2 * with_top.iterations);
  EXPECT_GT(with_top.levels_full, without.levels_full);
  EXPECT_GT(flat_relax, 0U);
  EXPECT_EQ(top_relax, flat_relax);
}

TEST(Oracle, FixpointIsFastOnHighSpdGraph) {
  // SPD(G) = n−1 would force Θ(n) direct iterations; the oracle needs
  // O(log² n) H-iterations (Theorem 4.5 + Theorem 5.2).
  Rng rng(10);
  const Vertex n = 200;
  const auto g = make_path(n);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(g, hs, 1.0 / std::log2(n), rng);
  const LeListAlgebra alg;
  const auto order = VertexOrder::random(n, rng);
  OracleStats stats;
  auto run = oracle_run(h, alg, le_initial_state(order), 256, &stats);
  EXPECT_TRUE(stats.reached_fixpoint);
  const double log2n = std::log2(static_cast<double>(n));
  EXPECT_LE(stats.h_iterations,
            static_cast<unsigned>(4.0 * log2n * log2n));
  // Direct iteration on G by comparison: the rank-0 entry must traverse at
  // least half the path before the lists can stabilise.
  auto direct = le_lists_iteration(g, order);
  EXPECT_GE(direct.iterations, n / 2 - 4);
  (void)run;
}

/// Every OracleStats field, comparable in one EXPECT_EQ.
auto stats_fields(const OracleStats& s) {
  return std::make_tuple(s.h_iterations, s.base_iterations,
                         s.reached_fixpoint, s.levels_skipped, s.levels_warm,
                         s.levels_full);
}

/// For every cap k below the converging sweep count K: run(k) then run()
/// must equal one run() in states and in every OracleStats field.  Then
/// one more run() on the converged oracle must do a single sweep that
/// skips every level and changes nothing.  Returns the single run's stats.
template <OracleAlgebra Algebra>
OracleStats expect_capped_runs_resume(
    const SimulatedGraph& h, const Algebra& alg,
    const std::vector<typename Algebra::State>& x0, const std::string& what) {
  MbfOracle<Algebra> once(h, alg, x0);
  EXPECT_TRUE(once.run()) << what;
  const OracleStats full = once.stats();
  for (unsigned k = 1; k < full.h_iterations; ++k) {
    MbfOracle<Algebra> capped(h, alg, x0);
    EXPECT_FALSE(capped.run(k)) << what << ", cap " << k;
    EXPECT_TRUE(capped.run()) << what << ", cap " << k;
    EXPECT_EQ(stats_fields(capped.stats()), stats_fields(full))
        << what << ", cap " << k;
    EXPECT_TRUE(capped.states() == once.states()) << what << ", cap " << k;
  }
  const auto fixpoint = once.states();
  EXPECT_TRUE(once.run()) << what;
  OracleStats again = full;
  ++again.h_iterations;
  again.levels_skipped += h.max_level() + 1;
  EXPECT_EQ(stats_fields(once.stats()), stats_fields(again)) << what;
  EXPECT_TRUE(once.states() == fixpoint) << what;
  return full;
}

/// RunResumesAfterCap runs once per graph family, and CTest registers one
/// entry per family (tests/CMakeLists.txt), so the families run side by
/// side.
class OracleCap : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleCap, RunResumesAfterCap) {
  // Hub hop sets with a real window make d > 1, so levels truncate and a
  // truncated level must re-consume its own output in the next sweep —
  // including the first sweep of a resumed run.
  unsigned capped_runs = 0;
  bool truncated = false;
  const std::string& family = GetParam();
  const auto g = test::support_graph(family, 256, 811);
  for (const unsigned window : {2U, 3U, 4U}) {
    Rng rng(812 + window);
    HubHopSetParams params;
    params.window = window;
    const auto hs = build_hub_hopset(g, params, rng);
    const auto h = build_simulated_graph(g, hs, 0.08, rng);
    const std::string what = family + ", window " + std::to_string(window);

    const auto order = VertexOrder::random(g.num_vertices(), rng);
    std::vector<DistanceMap> sources(g.num_vertices());
    for (Vertex s = 0; s < g.num_vertices(); s += 37) {
      sources[s] = DistanceMap::singleton(s, 0.0);
    }
    for (const OracleStats& full :
         {expect_capped_runs_resume(h, LeListAlgebra{},
                                    le_initial_state(order),
                                    what + ", LE lists"),
          expect_capped_runs_resume(
              h, SourceDetectionAlgebra{.k = 3, .max_dist = inf_weight()},
              sources, what + ", source detection")}) {
      capped_runs += full.h_iterations - 1;
      truncated = truncated || full.levels_full > h.max_level() + 1;
    }
  }
  EXPECT_GT(capped_runs, 0U);
  EXPECT_TRUE(truncated) << "no level truncated: the windows are too small";
}

INSTANTIATE_TEST_SUITE_P(Families, OracleCap,
                         ::testing::Values("gnm", "grid", "path", "powerlaw"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Differential tests: the level-reusing oracle against the Jacobi
// reference (test::jacobi_oracle_run).

class LevelReuseDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevelReuseDifferential, LeListsBitIdenticalAcrossFamilies) {
  // Hub hop sets (d > 1, truncating levels) and ε̂ > 0 (distinct level
  // scales) exercise every reuse mechanism: skips, warm restarts, and the
  // truncation fallback.
  for (const char* family : {"gnm", "grid", "powerlaw", "path"}) {
    const auto g = test::support_graph(family, 96, GetParam());
    const auto h =
        test::make_test_simgraph(g, GetParam() + 13, /*exact_hopset=*/false,
                                 /*eps_hat=*/0.08);
    Rng rng(GetParam() + 29);
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    const auto reuse = le_lists_oracle(h, order, 0);
    const auto ref = test::jacobi_oracle_run(h, LeListAlgebra{},
                                             le_initial_state(order), 256);
    ASSERT_TRUE(reuse.converged) << family;
    ASSERT_TRUE(ref.reached_fixpoint) << family;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(reuse.lists[v], ref.states[v]) << family << " vertex " << v;
    }
  }
}

TEST_P(LevelReuseDifferential, ScalarAndSourceDetectionBitIdentical) {
  const auto g = test::support_graph("gnm", 72, GetParam() + 1);
  const auto h = test::make_test_simgraph(g, GetParam() + 2,
                                          /*exact_hopset=*/false,
                                          /*eps_hat=*/0.1);
  {
    ScalarDistanceAlgebra alg;
    std::vector<Weight> x0(g.num_vertices(), inf_weight());
    x0[3] = 0.0;
    x0[40] = 0.0;
    auto a = oracle_run(h, alg, x0, 256);
    auto b = test::jacobi_oracle_run(h, alg, x0, 256);
    ASSERT_TRUE(a.reached_fixpoint && b.reached_fixpoint);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(a.states[v], b.states[v]) << "vertex " << v;
    }
  }
  {
    SourceDetectionAlgebra alg{.k = 3, .max_dist = inf_weight()};
    std::vector<DistanceMap> x0(g.num_vertices());
    for (Vertex s : {1U, 17U, 33U, 64U}) {
      x0[s] = DistanceMap::singleton(s, 0.0);
    }
    auto a = oracle_run(h, alg, x0, 256);
    auto b = test::jacobi_oracle_run(h, alg, x0, 256);
    ASSERT_TRUE(a.reached_fixpoint && b.reached_fixpoint);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(a.states[v], b.states[v]) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelReuseDifferential,
                         ::testing::Values(601, 602, 603));

TEST(LevelReuse, OracleMatchesBruteForceOnSmallGraphs) {
  // End-to-end: LE lists through the level-reusing oracle against the
  // APSP brute force, on the shared corpus (n ≤ 64).  The exact d = 1 hop
  // set and ε̂ = 0 make H's metric equal G's.
  const auto corpus = test::small_graph_corpus(12, 7100);
  for (const auto& c : corpus) {
    const auto h = make_h(c.graph, 0.0, c.seed);
    Rng rng(c.seed + 1);
    const auto order = VertexOrder::random(c.graph.num_vertices(), rng);
    const auto le = le_lists_oracle(h, order);
    ASSERT_TRUE(le.converged) << c.name;
    test::expect_valid_le_lists(le.lists, order);
    const auto brute = test::brute_force_le_lists(c.graph, order);
    for (Vertex v = 0; v < c.graph.num_vertices(); ++v) {
      EXPECT_TRUE(test::approx_equal(le.lists[v], brute[v]))
          << c.name << " vertex " << v;
    }
  }
}

TEST(LevelReuse, ThreadDeterminism) {
  // Lists and WorkDepth counters of the reuse pipeline must be
  // bit-identical at 1, 2, and 8 OpenMP threads — including on the
  // skewed-degree families that edge-balanced chunking repartitions.
  const int restore = num_threads();
  for (const char* family : {"star", "powerlaw", "gnm"}) {
    const auto g = test::support_graph(family, 160, 7200);
    const auto h = test::make_test_simgraph(g, 7201, /*exact_hopset=*/false,
                                            /*eps_hat=*/0.07);
    Rng rng(7202);
    const auto order = VertexOrder::random(g.num_vertices(), rng);

    std::vector<DistanceMap> ref_lists;
    std::uint64_t ref_relax = 0;
    std::uint64_t ref_edges = 0;
    std::uint64_t ref_work = 0;
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      const WorkDepthScope scope;
      auto le = le_lists_oracle(h, order);
      const std::uint64_t relax = scope.relaxations_delta();
      const std::uint64_t edges = scope.edges_touched_delta();
      const std::uint64_t work = scope.work_delta();
      ASSERT_TRUE(le.converged) << family;
      if (ref_lists.empty()) {
        ref_lists = std::move(le.lists);
        ref_relax = relax;
        ref_edges = edges;
        ref_work = work;
        continue;
      }
      EXPECT_EQ(relax, ref_relax) << family << " @ " << threads;
      EXPECT_EQ(edges, ref_edges) << family << " @ " << threads;
      EXPECT_EQ(work, ref_work) << family << " @ " << threads;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(le.lists[v], ref_lists[v])
            << family << " @ " << threads << " vertex " << v;
      }
    }
  }
  set_num_threads(restore);
}

TEST(LevelReuse, SweepsSkipWarmRestartAndCutRelaxations) {
  // The asymptotic claim behind level reuse: on a high-SPD path the
  // reuse pipeline must beat the Jacobi reference by a widening factor
  // (measured ~10× at n = 512, ~12× at n = 2048 — the CI bench gate pins
  // the reuse side's 2048 numbers; here a conservative 6× keeps the test
  // robust).
  Rng rng(7300);
  const Vertex n = 512;
  const auto g = make_path(n);
  const auto hs = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(g, hs, 0.01, rng);
  const auto order = VertexOrder::random(n, rng);

  const WorkDepthScope reuse_scope;
  const auto reuse = le_lists_oracle(h, order);
  const std::uint64_t reuse_relax = reuse_scope.relaxations_delta();

  const WorkDepthScope ref_scope;
  const auto ref = test::jacobi_oracle_run(h, LeListAlgebra{},
                                           le_initial_state(order), 256);
  const std::uint64_t ref_relax = ref_scope.relaxations_delta();

  ASSERT_TRUE(reuse.converged);
  ASSERT_TRUE(ref.reached_fixpoint);
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(reuse.lists[v], ref.states[v]) << "vertex " << v;
  }
  EXPECT_GT(reuse.levels_skipped, 0U);
  EXPECT_GT(reuse.levels_warm, 0U);
  EXPECT_LT(reuse.iterations, ref.iterations);
  EXPECT_LE(reuse_relax * 6, ref_relax);
}

}  // namespace
}  // namespace pmte
