// Tests for the generic MBF-like engine (Section 2): matrix-vector
// semantics and Corollary 2.17 (intermediate filtering does not change the
// filtered result) through a dense reference step, fixpoint behaviour
// through mbf_run.
#include <gtest/gtest.h>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algebras.hpp"
#include "src/mbf/engine.hpp"
#include "src/parallel/parallel.hpp"

namespace pmte {
namespace {

/// Dense reference for one MBF-like iteration x ↦ r^V(A x) (the library
/// iterates through MbfEngine).  `weight_scale` scales the edge weights as
/// the stretched matrices A_λ of Lemma 5.1 do; with `apply_filter` false
/// the raw product A x is returned (~-equivalent, Corollary 2.17).
template <MbfAlgebra Algebra>
std::vector<typename Algebra::State> mbf_step(
    const Graph& g, const Algebra& alg,
    const std::vector<typename Algebra::State>& x, double weight_scale = 1.0,
    bool apply_filter = true) {
  auto out = x;  // diagonal: 1 ⊙ x_v = x_v   (2.1)
  parallel_for(x.size(), [&](std::size_t vi) {
    const auto v = static_cast<Vertex>(vi);
    for (const auto& e : g.neighbors(v)) {
      alg.relax(out[vi], e.weight * weight_scale, e.to, v, x[e.to]);
    }
    if (apply_filter) alg.filter(out[vi]);
  });
  return out;
}

TEST(MbfEngine, SingleStepIsMatrixVectorProduct) {
  // x⁽¹⁾ = A x⁽⁰⁾ over Smin,+/D must equal one Bellman-Ford round.
  auto g = Graph::from_edges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 3, 7.0}});
  SourceDetectionAlgebra alg;  // identity filter
  std::vector<DistanceMap> x(4);
  x[0] = DistanceMap::singleton(0, 0.0);
  const auto y = mbf_step(g, alg, x);
  EXPECT_DOUBLE_EQ(y[0].at(0), 0.0);
  EXPECT_DOUBLE_EQ(y[1].at(0), 1.0);
  EXPECT_DOUBLE_EQ(y[3].at(0), 7.0);
  EXPECT_TRUE(y[2].empty());  // two hops away
}

TEST(MbfEngine, WeightScaleStretchesEdges) {
  auto g = Graph::from_edges(2, {{0, 1, 3.0}});
  SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x(2);
  x[0] = DistanceMap::singleton(0, 0.0);
  const auto y = mbf_step(g, alg, x, /*weight_scale=*/2.5);
  EXPECT_DOUBLE_EQ(y[1].at(0), 7.5);
}

TEST(MbfEngine, FixpointAfterSpdIterations) {
  auto g = make_path(9);
  SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x0(9);
  x0[0] = DistanceMap::singleton(0, 0.0);
  auto run = mbf_run(g, alg, std::move(x0), 100);
  EXPECT_TRUE(run.reached_fixpoint);
  // Fixpoint detection needs SPD + 1 iterations: 8 productive + 1 check.
  EXPECT_EQ(run.iterations, 9U);
  for (Vertex v = 0; v < 9; ++v) {
    EXPECT_DOUBLE_EQ(run.states[v].at(0), static_cast<double>(v));
  }
}

TEST(MbfEngine, IterationBudgetRespected) {
  auto g = make_path(50);
  SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x0(50);
  x0[0] = DistanceMap::singleton(0, 0.0);
  auto run = mbf_run(g, alg, std::move(x0), 5);
  EXPECT_FALSE(run.reached_fixpoint);
  EXPECT_EQ(run.iterations, 5U);
  // dist^5 semantics: vertex 7 not reached yet.
  EXPECT_FALSE(is_finite(run.states[7].at(0)));
  EXPECT_DOUBLE_EQ(run.states[5].at(0), 5.0);
}

TEST(MbfEngine, StateSizeMismatchThrows) {
  auto g = make_path(3);
  SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x(2);  // wrong size
  EXPECT_THROW((MbfEngine<SourceDetectionAlgebra>(g, alg, x)),
               std::logic_error);
}

// Corollary 2.17: r^V A^h x⁽⁰⁾ = (r^V A)^h x⁽⁰⁾ — running with or without
// intermediate filtering must produce the same *filtered* end state.
class FilterExchange : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterExchange, SourceDetection) {
  Rng rng(GetParam());
  auto g = make_gnm(24, 50, {1.0, 4.0}, rng);
  SourceDetectionAlgebra alg{.k = 3, .max_dist = 9.0};
  std::vector<DistanceMap> x0(24);
  for (Vertex s : {0U, 5U, 11U, 17U}) {
    x0[s] = DistanceMap::singleton(s, 0.0);
  }
  const unsigned h = 6;
  auto filtered = x0;
  auto raw = x0;
  for (unsigned i = 0; i < h; ++i) {
    filtered = mbf_step(g, alg, filtered, 1.0, /*filter=*/true);
    raw = mbf_step(g, alg, raw, 1.0, /*filter=*/false);
  }
  mbf_filter(alg, raw);
  for (Vertex v = 0; v < 24; ++v) {
    EXPECT_EQ(filtered[v], raw[v]) << "vertex " << v;
  }
}

TEST_P(FilterExchange, LeLists) {
  Rng rng(GetParam() + 500);
  auto g = make_gnm(20, 40, {1.0, 3.0}, rng);
  const auto order = VertexOrder::random(20, rng);
  const LeListAlgebra alg;
  auto filtered = le_initial_state(order);
  auto raw = filtered;
  const unsigned h = 5;
  for (unsigned i = 0; i < h; ++i) {
    filtered = mbf_step(g, alg, filtered, 1.0, true);
    raw = mbf_step(g, alg, raw, 1.0, false);
  }
  mbf_filter(alg, raw);
  for (Vertex v = 0; v < 20; ++v) {
    EXPECT_EQ(filtered[v], raw[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterExchange,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68));

TEST(MbfEngine, WorkCountersAdvance) {
  WorkDepth::reset();
  auto g = make_gnm(30, 60, {1.0, 2.0}, Rng(9));
  SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x0(30);
  x0[0] = DistanceMap::singleton(0, 0.0);
  const WorkDepthScope scope;
  (void)mbf_run(g, alg, std::move(x0), 10);
  EXPECT_GT(scope.work_delta(), 0U);
  EXPECT_GT(scope.depth_delta(), 0U);
  EXPECT_GT(scope.relaxations_delta(), 0U);
  EXPECT_GE(scope.edges_touched_delta(), scope.relaxations_delta());
}

// The point of the frontier: on long-diameter graphs the changed set is a
// narrow wavefront, so a full fixpoint run must relax asymptotically fewer
// edges than the dense engine's iterations × 2m.  Counter counts are
// deterministic, so the bound is exact, not statistical.
TEST(MbfEngine, FrontierRelaxesAsymptoticallyFewerEdgesOnPath) {
  const Vertex n = 512;
  const auto g = make_path(n);
  ScalarDistanceAlgebra alg;
  std::vector<Weight> x0(n, inf_weight());
  x0[0] = 0.0;

  const WorkDepthScope dense_scope;
  const auto dense = mbf_run(g, alg, x0, n, 1.0, MbfMode::kDense);
  const std::uint64_t dense_relax = dense_scope.relaxations_delta();

  const WorkDepthScope sparse_scope;
  const auto sparse = mbf_run(g, alg, x0, n, 1.0, MbfMode::kAuto);
  const std::uint64_t sparse_relax = sparse_scope.relaxations_delta();

  ASSERT_TRUE(dense.reached_fixpoint);
  ASSERT_TRUE(sparse.reached_fixpoint);
  EXPECT_EQ(dense.iterations, sparse.iterations);
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(dense.states[v], sparse.states[v]) << "vertex " << v;
  }
  // Dense: SPD(G)+1 iterations × 2m ≈ 2n² relaxations.  Frontier: one
  // dense first round + an O(1)-wide wavefront per round ≈ O(n).
  EXPECT_EQ(dense_relax,
            static_cast<std::uint64_t>(dense.iterations) * 2 * g.num_edges());
  EXPECT_LT(sparse_relax * 20, dense_relax);
}

TEST(MbfEngine, FrontierRelaxesFewerEdgesOnGrid) {
  const auto g = make_grid(20, 20, {1.0, 2.0}, Rng(13));
  ScalarDistanceAlgebra alg;
  std::vector<Weight> x0(g.num_vertices(), inf_weight());
  x0[0] = 0.0;

  const WorkDepthScope dense_scope;
  const auto dense =
      mbf_run(g, alg, x0, g.num_vertices(), 1.0, MbfMode::kDense);
  const std::uint64_t dense_relax = dense_scope.relaxations_delta();

  const WorkDepthScope sparse_scope;
  const auto sparse =
      mbf_run(g, alg, x0, g.num_vertices(), 1.0, MbfMode::kAuto);
  const std::uint64_t sparse_relax = sparse_scope.relaxations_delta();

  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(dense.states[v], sparse.states[v]) << "vertex " << v;
  }
  EXPECT_LT(sparse_relax * 2, dense_relax);
}

// Acceptance: frontier-driven runs are bit-identical to the dense engine
// at 1, 2, and 8 OpenMP threads — states, iteration counts, and the
// deterministic relaxation counters.
TEST(MbfEngine, FrontierBitIdenticalAcrossThreadCounts) {
  const int restore = num_threads();
  const auto g = make_grid(16, 16, {1.0, 3.0}, Rng(17));
  Rng rng(23);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const LeListAlgebra alg;
  const auto x0 = le_initial_state(order);

  const auto dense =
      mbf_run(g, alg, x0, g.num_vertices(), 1.0, MbfMode::kDense);
  std::uint64_t relax1 = 0;
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    const WorkDepthScope scope;
    const auto sparse =
        mbf_run(g, alg, x0, g.num_vertices(), 1.0, MbfMode::kAuto);
    EXPECT_EQ(sparse.iterations, dense.iterations) << threads << " threads";
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(sparse.states[v], dense.states[v])
          << threads << " threads, vertex " << v;
    }
    if (threads == 1) {
      relax1 = scope.relaxations_delta();
    } else {
      EXPECT_EQ(scope.relaxations_delta(), relax1) << threads << " threads";
    }
  }
  set_num_threads(restore);
}

}  // namespace
}  // namespace pmte
