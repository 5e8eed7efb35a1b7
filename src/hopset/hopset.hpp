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
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

/// A constructed hop set: the extra edges plus its certified hop bound
/// (the stretch slack ε̂ is 0 for every hop set built here).
struct HopSet {
  std::vector<WeightedEdge> edges;  ///< shortcut edges to add to G
  unsigned d = 1;                   ///< certified hop bound
  std::size_t num_hubs = 0;

  /// G' = G + E'.
  [[nodiscard]] Graph apply(const Graph& g) const { return g.augmented(edges); }
};

struct HubHopSetParams {
  /// Hitting-window length d0; 0 → auto ⌈√(n·ln n)⌉ (near-linear clique).
  /// Every sampled hub is kept: dropping hubs would void the certified d.
  unsigned window = 0;
};

/// Build a hub hop set for connected G.  ε̂ = 0 (w.h.p.); d = 2·window
/// with the hub clique, d = min(n − 1, window + Hmax) without it.
[[nodiscard]] HopSet build_hub_hopset(const Graph& g, HubHopSetParams params,
                                      Rng& rng);

}  // namespace pmte
