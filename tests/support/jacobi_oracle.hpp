#pragma once
// Reference evaluation of the oracle: Equation (5.9) applied literally.
//
// One H-iteration is the Jacobi operator
//     x ↦ r^V ⊕_λ P_λ (r^V A_λ)^d P_λ x,
// every level restarting from P_λ x.  MbfOracle's Gauss–Seidel sweeps with
// per-level caches reach the same least fixpoint (both are fair monotone
// iterations of the same component operators), so the differential tests
// compare the two bit for bit.  Built only on MbfEngine's reset() and
// step().

#include <utility>
#include <vector>

#include "src/mbf/engine.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "tests/support/parallel_reduce.hpp"

namespace pmte::test {

/// Parallel component-wise equality of two state vectors (the Jacobi
/// operator's fixpoint test).
template <MbfAlgebra Algebra>
[[nodiscard]] bool mbf_states_equal(
    const Algebra& alg, const std::vector<typename Algebra::State>& a,
    const std::vector<typename Algebra::State>& b) {
  PMTE_CHECK(a.size() == b.size(), "mbf_states_equal: size mismatch");
  return parallel_reduce_sum(a.size(), [&](std::size_t v) {
           return alg.equal(a[v], b[v]) ? 0.0 : 1.0;
         }) == 0.0;
}

/// Iterate the Jacobi operator from r^V x⁽⁰⁾ until the states stop
/// changing or `max_h_iterations` is spent.  `stats` receives
/// h_iterations, base_iterations (engine steps, including the one that
/// detects a level's fixpoint), levels_full (every level, every
/// H-iteration) and reached_fixpoint.
template <OracleAlgebra Algebra>
[[nodiscard]] MbfRun<typename Algebra::State> jacobi_oracle_run(
    const SimulatedGraph& h, const Algebra& alg,
    std::vector<typename Algebra::State> x0, unsigned max_h_iterations,
    OracleStats* stats = nullptr) {
  using State = typename Algebra::State;
  // Every level input is a projection of filtered states, hence filtered.
  MbfEngine<Algebra> engine(h.base(), alg, MbfOptions{.filter_initial = false});
  const std::size_t n = x0.size();
  OracleStats st;
  MbfRun<State> run;
  mbf_filter(alg, x0);
  run.states = std::move(x0);
  while (run.iterations < max_h_iterations) {
    std::vector<State> acc(n, alg.bottom());
    for (unsigned lambda = 0; lambda <= h.max_level(); ++lambda) {
      ++st.levels_full;
      std::vector<State> seed(n, alg.bottom());
      for (std::size_t v = 0; v < n; ++v) {
        if (h.levels().level(static_cast<Vertex>(v)) >= lambda) {
          seed[v] = run.states[v];
        }
      }
      engine.set_weight_scale(h.level_scale(lambda));
      engine.reset(std::move(seed));
      for (unsigned s = 0; s < h.hop_bound(); ++s) {
        ++st.base_iterations;
        if (!engine.step()) break;
      }
      const auto z = engine.take_states();
      for (std::size_t v = 0; v < n; ++v) {
        if (h.levels().level(static_cast<Vertex>(v)) >= lambda) {
          alg.aggregate(acc[v], z[v]);
        }
      }
    }
    mbf_filter(alg, acc);
    ++run.iterations;
    const bool fixpoint = mbf_states_equal(alg, acc, run.states);
    run.states = std::move(acc);
    if (fixpoint) {
      run.reached_fixpoint = true;
      break;
    }
  }
  st.h_iterations = run.iterations;
  st.reached_fixpoint = run.reached_fixpoint;
  if (stats != nullptr) *stats = st;
  return run;
}

}  // namespace pmte::test
