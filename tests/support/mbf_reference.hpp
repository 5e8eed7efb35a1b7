#pragma once
// Reference MBF-like iteration: Definition 2.11 applied literally.
//
// One step recomputes every vertex from every incident edge, with no
// frontier, no gather and no delta offers, and reports which states
// changed.  MbfEngine's rounds must reproduce its states, changed sets and
// iteration counts bit for bit (test_mbf_engine, test_mbf_frontier).
// Built only on the algebra's relax and filter.

#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/mbf/engine.hpp"
#include "src/parallel/parallel.hpp"

namespace pmte::test {

/// One reference step: the new states and the vertices whose state
/// changed, ascending.
template <typename State>
struct MbfStep {
  std::vector<State> states;
  std::vector<Vertex> changed;
};

/// One MBF-like iteration x ↦ r^V(A x): every vertex relaxes all of its
/// edges, in neighbour order, into a copy of its own state (the diagonal,
/// 1 ⊙ x_v = x_v by (2.1)) and filters.  `weight_scale` scales the edge
/// weights as the stretched matrices A_λ of Lemma 5.1 do; with
/// `apply_filter` false the raw product A x is returned (~-equivalent,
/// Corollary 2.17).
template <MbfAlgebra Algebra>
[[nodiscard]] MbfStep<typename Algebra::State> mbf_step(
    const Graph& g, const Algebra& alg,
    const std::vector<typename Algebra::State>& x, double weight_scale = 1.0,
    bool apply_filter = true) {
  MbfStep<typename Algebra::State> step{x, {}};
  parallel_for(x.size(), [&](std::size_t vi) {
    const auto v = static_cast<Vertex>(vi);
    for (const auto& e : g.neighbors(v)) {
      alg.relax(step.states[vi], e.weight * weight_scale, e.to, v, x[e.to]);
    }
    if (apply_filter) alg.filter(step.states[vi]);
  });
  for (std::size_t vi = 0; vi < x.size(); ++vi) {
    if (!alg.equal(step.states[vi], x[vi])) {
      step.changed.push_back(static_cast<Vertex>(vi));
    }
  }
  return step;
}

/// mbf_run's reference: filter x⁽⁰⁾, then step until a step changes
/// nothing (the filtered fixpoint; that step counts) or `max_iterations`
/// steps ran.
template <MbfAlgebra Algebra>
[[nodiscard]] MbfRun<typename Algebra::State> mbf_reference_run(
    const Graph& g, const Algebra& alg,
    std::vector<typename Algebra::State> x0, unsigned max_iterations,
    double weight_scale = 1.0) {
  for (auto& s : x0) alg.filter(s);
  MbfRun<typename Algebra::State> run;
  run.states = std::move(x0);
  while (run.iterations < max_iterations) {
    auto step = mbf_step(g, alg, run.states, weight_scale);
    ++run.iterations;
    run.states = std::move(step.states);
    if (step.changed.empty()) {
      run.reached_fixpoint = true;
      break;
    }
  }
  return run;
}

}  // namespace pmte::test
