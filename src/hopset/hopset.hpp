#pragma once
// (d, ε̂)-hop sets (Equation (1.3)).
//
// A hop set for G is a set of extra weighted edges E' such that in
// G' = G + E' every distance is (1+ε̂)-approximated by a d-hop path:
//     dist^d(v, w, G') ≤ (1 + ε̂) · dist(v, w, G)   for all v, w.
//
// The paper uses Cohen's construction [13] as a black box.  We substitute
// the *hub hop set*: sample each vertex as a hub with probability
// min(1, c·ln n / d0) and connect all hub pairs by shortcut edges carrying
// exact distances (computed by parallel Dijkstras).  W.h.p. every min-hop
// shortest path visits a hub within any window of d0 consecutive
// vertices, hence d = 2·d0 hops suffice and ε̂ = 0.  Trade-off relative to
// Cohen: to keep the shortcut clique near-linear one chooses
// d0 ≈ √(n·ln n), i.e. d ∈ Θ̃(√n) instead of polylog — everything
// downstream (Sections 4–7) is agnostic to this, as the paper notes.
//
// The clique is kept only where it shortens hops.  Each hub's Dijkstra
// runs on (dist, hops) keys, which yields the shortcut weights and the
// fewest-hop counts in one pass.  Let Hmax be the most hops from any hub
// and r the most hops from any vertex to its nearest hub; the clique
// brings hop counts down to about 2r + 1.  When Hmax ≤ 2·(2r + 1) it
// cannot even halve them, so the hop set has no edges and G itself is
// the hop set, with d = min(n − 1, d0 + Hmax): w.h.p. every fewest-hop
// shortest path of ≥ d0 hops meets a hub within its first d0 vertices,
// and its rest from that hub has ≤ Hmax hops.  Sparse random graphs
// (gnm, power law) drop the clique; paths, cycles and grids keep it.
// Either way the hubs draw exactly the same random numbers, so whatever
// the caller samples from its Rng afterwards is unchanged.

#include <cstddef>
#include <string>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

/// A constructed hop set: the extra edges plus its certified parameters.
struct HopSet {
  std::vector<WeightedEdge> edges;  ///< shortcut edges to add to G
  unsigned d = 1;                   ///< certified hop bound
  double epsilon = 0.0;             ///< certified stretch slack ε̂
  std::size_t num_hubs = 0;
  std::string method;

  /// G' = G + E'.
  [[nodiscard]] Graph apply(const Graph& g) const { return g.augmented(edges); }
};

struct HubHopSetParams {
  /// Hitting-window length d0; 0 → auto ⌈√(n·ln n)⌉ (near-linear clique).
  unsigned window = 0;
  /// Oversampling constant c in the hub probability c·ln(n)/d0.
  double sampling_constant = 2.0;
  /// Hard cap on the number of hubs (0 = none); guards against parameter
  /// choices that would produce a quadratic shortcut clique.
  std::size_t max_hubs = 0;
};

/// Build a hub hop set for connected G.  ε̂ = 0 (w.h.p.); d = 2·window
/// with the hub clique, d = min(n − 1, window + Hmax) without it.
[[nodiscard]] HopSet build_hub_hopset(const Graph& g, HubHopSetParams params,
                                      Rng& rng);

/// Exhaustive exact hop set: an edge per connected vertex pair (full APSP),
/// making d = 1, ε̂ = 0.  Θ(n²) size — test/baseline use only.
[[nodiscard]] HopSet build_exact_hopset(const Graph& g);

/// The empty hop set: d = n−1, ε̂ = 0 (G itself).  Baseline.
[[nodiscard]] HopSet build_trivial_hopset(const Graph& g);

/// Empirical validation of (1.3): returns the maximum over sampled vertex
/// pairs of dist^d(v,w,G') / dist(v,w,G).  Values ≤ 1+ε̂ certify the hop
/// set on the sample; exact when sample_sources == n.
[[nodiscard]] double measure_hopset_stretch(const Graph& g,
                                            const HopSet& hopset,
                                            std::size_t sample_sources,
                                            Rng& rng);

}  // namespace pmte
