#pragma once
// The simulated graph H (Definition 4.2).
//
// Given G' (the input graph augmented with a (d, ε̂)-hop set) and sampled
// vertex levels, H is the complete graph on V with
//     ω_Λ({v,w}) = (1+ε̂)^{Λ−λ(v,w)} · dist^d(v,w,G').
// High-level edges receive smaller penalties, which makes min-hop shortest
// paths climb and descend the level hierarchy monotonically (Lemma 4.3);
// consequently SPD(H) ∈ O(log² n) w.h.p. while every distance is preserved
// up to (1+ε̂)^{Λ+1} (Theorem 4.5).
//
// H has Θ(n²) edges and is *never* stored: the class keeps G', the levels
// and the parameters, which is all the oracle (Section 5) needs.  Explicit
// materialisation, for validation on small instances, is in the reference
// library (tests/support/reference/simulated_graph.hpp).

#include "src/graph/graph.hpp"
#include "src/hopset/hopset.hpp"
#include "src/simgraph/levels.hpp"
#include "src/util/rng.hpp"

namespace pmte {

class SimulatedGraph {
 public:
  SimulatedGraph(Graph g_prime, unsigned hop_bound, double eps_hat,
                 LevelAssignment levels);

  [[nodiscard]] const Graph& base() const noexcept { return g_prime_; }
  [[nodiscard]] Vertex num_vertices() const noexcept {
    return g_prime_.num_vertices();
  }
  [[nodiscard]] unsigned hop_bound() const noexcept { return d_; }
  [[nodiscard]] double eps_hat() const noexcept { return eps_hat_; }
  [[nodiscard]] const LevelAssignment& levels() const noexcept {
    return levels_;
  }
  [[nodiscard]] unsigned max_level() const noexcept {
    return levels_.max_level();
  }

  /// The level scaling factor (1+ε̂)^{Λ−λ} applied to A_λ (Lemma 5.1).
  [[nodiscard]] double level_scale(unsigned lambda) const noexcept;

  /// Mutate one G' edge weight in place — the dynamic-update hook (see
  /// docs/DYNAMIC.md).  H's other state (levels, scales, hop bound) is
  /// weight-independent, so only the CSR weight changes; oracles holding
  /// a pointer to this H observe the new weight on their next relaxation
  /// because the engine reads weights live from the graph.
  void set_base_edge_weight(Vertex u, Vertex v, Weight w) {
    g_prime_.set_edge_weight(u, v, w);
  }

 private:
  Graph g_prime_;
  unsigned d_;
  double eps_hat_;
  LevelAssignment levels_;
  std::vector<double> scale_;  // scale_[λ] = (1+ε̂)^{Λ−λ}
};

/// End-to-end construction per the paper's pipeline (Section 4):
/// G  →(hop set)→  G'  →(levels, penalties)→  H.
[[nodiscard]] SimulatedGraph build_simulated_graph(const Graph& g,
                                                   const HopSet& hopset,
                                                   double eps_hat, Rng& rng);

}  // namespace pmte
