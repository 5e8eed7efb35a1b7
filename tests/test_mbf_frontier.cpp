// Sparse/dense equivalence of the frontier-driven MBF engine.
//
// The frontier optimisation must be *exact*: for every algebra of the
// framework, mbf_run in frontier mode (kAuto / forced kSparse) has to
// produce states bit-identical to the dense reference (kDense), with the
// same iteration count and fixpoint flag — on every graph family, at every
// OpenMP thread count.  These are randomized cross-checks at fixed seeds
// over ER, grid, and star graphs (plus paths, the frontier's best case) at
// 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/mbf/algebras.hpp"
#include "src/mbf/engine.hpp"
#include "src/parallel/counters.hpp"
#include "tests/support/fixtures.hpp"

namespace pmte {
namespace {

/// Compare two runs entry-by-entry with operator== (bit-level for the
/// scalar algebras, representation-level for the map/set states).
template <typename State>
void expect_identical_runs(const MbfRun<State>& a, const MbfRun<State>& b,
                           const char* what) {
  ASSERT_EQ(a.states.size(), b.states.size()) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.reached_fixpoint, b.reached_fixpoint) << what;
  for (std::size_t v = 0; v < a.states.size(); ++v) {
    EXPECT_EQ(a.states[v], b.states[v]) << what << ", vertex " << v;
  }
}

/// Run dense / auto / forced-sparse at 1, 2, and 8 threads and check all
/// seven runs agree (dense @ max threads is the reference).
template <MbfAlgebra Algebra>
void cross_check(const Graph& g, const Algebra& alg,
                 const std::vector<typename Algebra::State>& x0,
                 unsigned max_iterations, const char* what) {
  const int restore = num_threads();
  auto reference = mbf_run(g, alg, x0, max_iterations, 1.0, MbfMode::kDense);
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    auto dense = mbf_run(g, alg, x0, max_iterations, 1.0, MbfMode::kDense);
    auto sparse = mbf_run(g, alg, x0, max_iterations, 1.0, MbfMode::kSparse);
    auto hybrid = mbf_run(g, alg, x0, max_iterations, 1.0, MbfMode::kAuto);
    expect_identical_runs(reference, dense, what);
    expect_identical_runs(reference, sparse, what);
    expect_identical_runs(reference, hybrid, what);
  }
  set_num_threads(restore);
}

Graph family_graph(const std::string& family, Vertex n, std::uint64_t seed) {
  // Shared fixtures (tests/support): "er" is the historical local alias.
  return test::support_graph(family == "er" ? "gnm" : family, n, seed);
}

class FrontierEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
 protected:
  [[nodiscard]] const char* family() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(FrontierEquivalence, ScalarDistances) {
  const auto g = family_graph(family(), 72, seed());
  ScalarDistanceAlgebra alg;
  std::vector<Weight> x0(g.num_vertices(), inf_weight());
  Rng rng(seed() + 1);
  x0[rng.below(g.num_vertices())] = 0.0;
  cross_check(g, alg, x0, g.num_vertices(), "scalar sssp");
}

TEST_P(FrontierEquivalence, CappedForestFire) {
  const auto g = family_graph(family(), 72, seed());
  ScalarDistanceAlgebra alg{.cap = 6.0};
  std::vector<Weight> x0(g.num_vertices(), inf_weight());
  x0[0] = 0.0;
  x0[g.num_vertices() / 2] = 0.0;
  cross_check(g, alg, x0, g.num_vertices(), "forest fire");
}

TEST_P(FrontierEquivalence, SourceDetection) {
  const auto g = family_graph(family(), 64, seed());
  SourceDetectionAlgebra alg{.k = 3, .max_dist = 8.0};
  std::vector<DistanceMap> x0(g.num_vertices());
  Rng rng(seed() + 2);
  for (int s = 0; s < 6; ++s) {
    const auto v = static_cast<Vertex>(rng.below(g.num_vertices()));
    x0[v] = DistanceMap::singleton(v, 0.0);
  }
  cross_check(g, alg, x0, g.num_vertices(), "source detection");
}

TEST_P(FrontierEquivalence, LeLists) {
  const auto g = family_graph(family(), 64, seed());
  Rng rng(seed() + 3);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const LeListAlgebra alg;
  cross_check(g, alg, le_initial_state(order), g.num_vertices(), "LE lists");
}

TEST_P(FrontierEquivalence, WidestPaths) {
  const auto g = family_graph(family(), 56, seed());
  WidestPathAlgebra alg;
  std::vector<WidthMap> x0(g.num_vertices());
  x0[0] = WidthMap::singleton(0, inf_weight());
  x0[g.num_vertices() - 1] =
      WidthMap::singleton(g.num_vertices() - 1, inf_weight());
  cross_check(g, alg, x0, g.num_vertices(), "widest paths");
}

TEST_P(FrontierEquivalence, Reachability) {
  const auto g = family_graph(family(), 64, seed());
  ReachabilityAlgebra alg;
  std::vector<std::vector<Vertex>> x0(g.num_vertices());
  x0[0] = {0};
  cross_check(g, alg, x0, /*max_iterations=*/7, "reachability");
}

TEST_P(FrontierEquivalence, KShortestDistinctPaths) {
  // Path sets are heavy; a small instance keeps the 9 runs fast.
  const auto g = family_graph(family(), 20, seed());
  KsdpAlgebra alg{.target = 0, .k = 2, .distinct_weights = false};
  std::vector<PathSet> x0;
  x0.reserve(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    x0.push_back(PathSet::single(VertexPath{{v}}, 0.0));
  }
  cross_check(g, alg, x0, g.num_vertices(), "k-SDP");
}

INSTANTIATE_TEST_SUITE_P(
    Families, FrontierEquivalence,
    ::testing::Combine(::testing::Values("er", "grid", "star", "path"),
                       ::testing::Values(101U, 202U, 303U)));

TEST(FrontierEquivalence, WeightScaleMatchesDense) {
  Rng rng(7);
  const auto g = make_gnm(48, 144, {1.0, 4.0}, rng);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const LeListAlgebra alg;
  const auto x0 = le_initial_state(order);
  auto dense = mbf_run(g, alg, x0, 64, 1.75, MbfMode::kDense);
  auto sparse = mbf_run(g, alg, x0, 64, 1.75, MbfMode::kSparse);
  expect_identical_runs(dense, sparse, "weight scale");
}

TEST(FrontierEquivalence, EngineResetReusesBuffers) {
  // One engine, two runs from different sources: the second run must be
  // unaffected by the first (reset reinstalls a full frontier).
  const auto g = make_grid(8, 8, {1.0, 2.0}, Rng(11));
  ScalarDistanceAlgebra alg;
  MbfEngine<ScalarDistanceAlgebra> engine(g, alg);
  for (const Vertex source : {Vertex{0}, Vertex{63}, Vertex{27}}) {
    std::vector<Weight> x0(g.num_vertices(), inf_weight());
    x0[source] = 0.0;
    engine.reset(x0);
    while (engine.step()) {
    }
    EXPECT_TRUE(engine.at_fixpoint());
    const auto expect =
        mbf_run(g, alg, std::move(x0), g.num_vertices(), 1.0,
                MbfMode::kDense);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(engine.states()[v], expect.states[v]) << "vertex " << v;
    }
  }
}

TEST(FrontierEquivalence, BalancedChunkingIsThreadDeterministic) {
  // The engine's rounds now run through parallel_for_balanced; on skewed
  // degree distributions (star centre, power-law hubs) the chunk layout
  // differs per thread count, but states AND WorkDepth counters must stay
  // bit-identical — the chunking only re-partitions, never re-orders the
  // logical work.
  const int restore = num_threads();
  for (const char* family : {"star", "powerlaw"}) {
    const auto g = test::support_graph(family, 2048, 909);
    Rng rng(910);
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    const LeListAlgebra alg;
    const auto x0 = le_initial_state(order);

    std::vector<DistanceMap> ref_states;
    std::uint64_t ref_relax = 0;
    std::uint64_t ref_edges = 0;
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      for (const MbfMode mode : {MbfMode::kAuto, MbfMode::kSparse}) {
        const WorkDepthScope scope;
        auto run = mbf_run(g, alg, x0, g.num_vertices(), 1.0, mode);
        ASSERT_TRUE(run.reached_fixpoint) << family;
        if (ref_states.empty()) {
          ref_states = std::move(run.states);
          ref_relax = scope.relaxations_delta();
          ref_edges = scope.edges_touched_delta();
          continue;
        }
        if (mode == MbfMode::kAuto) {
          EXPECT_EQ(scope.relaxations_delta(), ref_relax)
              << family << " @ " << threads;
          EXPECT_EQ(scope.edges_touched_delta(), ref_edges)
              << family << " @ " << threads;
        }
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          EXPECT_EQ(run.states[v], ref_states[v])
              << family << " @ " << threads << " vertex " << v;
        }
      }
    }
  }
  set_num_threads(restore);
}

// ---------------------------------------------------------------------------
// Per-round lockstep.  A sparse round claims its affected set by per-vertex
// marks; from the second round after a reset, an LE-list frontier vertex
// offers only the entries it gained (DeltaOfferAlgebra), while source
// detection and APSP keep full offers; and MbfOracle reuses one engine
// across reset_with_frontier restarts at different weight scales.  None of
// this may change a round: a kDense and a kSparse engine stepped side by
// side must hold the same states and frontiers after every step, and a
// reused engine must match a fresh one.

/// Step `reference` to its fixpoint and every engine in `others` with it,
/// checking step results, frontiers and states after each step.  Returns
/// the largest frontier a round after the first started from.
template <MbfAlgebra Algebra>
std::size_t step_in_lockstep(MbfEngine<Algebra>& reference,
                             std::initializer_list<MbfEngine<Algebra>*> others,
                             const std::string& what) {
  std::size_t widest = 0;
  for (unsigned round = 1;; ++round) {
    const bool more = reference.step();
    const auto& want = reference.states();
    for (auto* engine : others) {
      EXPECT_EQ(engine->step(), more) << what << ", round " << round;
      EXPECT_EQ(engine->frontier(), reference.frontier())
          << what << ", round " << round;
      const auto& got = engine->states();
      const auto v = static_cast<std::size_t>(
          std::mismatch(got.begin(), got.end(), want.begin()).first -
          got.begin());
      EXPECT_EQ(v, got.size())
          << what << ", round " << round << ": states differ at vertex " << v;
    }
    if (::testing::Test::HasFailure() || !more) return widest;
    widest = std::max(widest, reference.frontier().size());
  }
}

/// The oracle's use of one engine, for a distance-map algebra: full resets
/// at two weight scales, then restarts alternating between the scales.
/// Each restart seeds that scale's cached fixpoint, perturbed on a random
/// quarter of the vertices that forms the frontier; the last restart is a
/// support-seeded start (⊥ outside the frontier).
template <MbfAlgebra Algebra>
void lockstep_life_cycle(const Graph& g, const Algebra& alg,
                         const std::vector<DistanceMap>& x0,
                         const std::string& what) {
  const Vertex n = g.num_vertices();
  constexpr double kScales[] = {1.0, 1.5};
  const auto engine_opts = [](double scale, MbfMode mode) {
    return MbfOptions{.weight_scale = scale, .mode = mode};
  };
  MbfEngine<Algebra> dense(g, alg, engine_opts(1.0, MbfMode::kDense));
  MbfEngine<Algebra> sparse(g, alg, engine_opts(1.0, MbfMode::kSparse));
  std::vector<DistanceMap> cached[2];
  for (int s = 0; s < 2; ++s) {
    dense.set_weight_scale(kScales[s]);
    sparse.set_weight_scale(kScales[s]);
    dense.reset(x0);
    sparse.reset(x0);
    const auto widest = step_in_lockstep(
        dense, {&sparse}, what + ", reset " + std::to_string(s));
    if (::testing::Test::HasFailure()) return;
    // Frontier loops only open a parallel region from 128 vertices on.
    EXPECT_GE(widest, 128U) << what;
    cached[s] = dense.states();
  }

  Rng rng(n);
  constexpr int kRestarts = 6;
  for (int restart = 0; restart < kRestarts; ++restart) {
    const int s = restart % 2;
    const bool support_seeded = restart == kRestarts - 1;
    std::vector<DistanceMap> seed = cached[s];
    std::vector<Vertex> frontier;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.below(4) != 0) {
        if (support_seeded) seed[v] = alg.bottom();
        continue;
      }
      frontier.push_back(v);
      if (!support_seeded) {
        const auto key = static_cast<Vertex>(rng.below(n));
        seed[v].merge_min(
            DistanceMap::singleton(key, std::floor(rng.uniform(0.0, 3.0))));
        alg.filter(seed[v]);
      }
    }
    dense.set_weight_scale(kScales[s]);
    sparse.set_weight_scale(kScales[s]);
    MbfEngine<Algebra> fresh(g, alg, engine_opts(kScales[s], MbfMode::kSparse));
    dense.reset_with_frontier(seed, frontier);
    sparse.reset_with_frontier(seed, frontier);
    fresh.reset_with_frontier(std::move(seed), std::move(frontier));
    step_in_lockstep(dense, {&sparse, &fresh},
                     what + ", restart " + std::to_string(restart));
    if (::testing::Test::HasFailure()) return;
    cached[s] = dense.states();
  }
}

/// Run `check(label)` at 1, 2 and 8 threads; `label` names the count.
template <typename Check>
void at_thread_counts(Check check) {
  const int restore = num_threads();
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    check(" @ " + std::to_string(threads) + " threads");
    if (::testing::Test::HasFailure()) break;
  }
  set_num_threads(restore);
}

/// Graph families: gnm and a power-law graph whose hubs put most vertices
/// next to any sizeable frontier.
class SparseRoundLockstep : public ::testing::TestWithParam<const char*> {};

TEST_P(SparseRoundLockstep, LeLists) {
  const auto g = test::support_graph(GetParam(), 1024, 515);
  Rng rng(516);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const LeListAlgebra alg;
  at_thread_counts([&](const std::string& at) {
    lockstep_life_cycle(g, alg, le_initial_state(order),
                        std::string("LE lists ") + GetParam() + at);
  });
}

TEST_P(SparseRoundLockstep, SourceDetection) {
  const auto g = test::support_graph(GetParam(), 1024, 525);
  const SourceDetectionAlgebra alg{.k = 3, .max_dist = 8.0};
  std::vector<DistanceMap> x0(g.num_vertices());
  Rng rng(526);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (rng.below(2) == 0) x0[v] = DistanceMap::singleton(v, 0.0);
  }
  at_thread_counts([&](const std::string& at) {
    lockstep_life_cycle(g, alg, x0,
                        std::string("source detection ") + GetParam() + at);
  });
}

TEST_P(SparseRoundLockstep, AllPairs) {
  // k = ∞: APSP (Example 3.5); every state grows to n entries, so n = 256.
  const auto g = test::support_graph(GetParam(), 256, 535);
  const SourceDetectionAlgebra alg;
  std::vector<DistanceMap> x0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    x0.push_back(DistanceMap::singleton(v, 0.0));
  }
  at_thread_counts([&](const std::string& at) {
    lockstep_life_cycle(g, alg, x0,
                        std::string("all pairs ") + GetParam() + at);
  });
}

INSTANTIATE_TEST_SUITE_P(Families, SparseRoundLockstep,
                         ::testing::Values("gnm", "powerlaw"));

}  // namespace
}  // namespace pmte
