#pragma once
// The simulated graph H made explicit (Definition 4.2), for validation on
// small instances: one edge weight ω_Λ({v,w}), or all Θ(n²) edges as a
// Graph.  Both read H through its public accessors; the oracle never
// materialises H.

#include "src/graph/graph.hpp"
#include "src/simgraph/simulated_graph.hpp"

namespace pmte {

/// ω_Λ({v,w}) computed from explicit d-hop distances — O(d·m) per call;
/// for tests.
[[nodiscard]] Weight edge_weight_exact(const SimulatedGraph& h, Vertex v,
                                       Vertex w);

/// Materialise H explicitly.  `use_true_hop_distances` selects the exact
/// Definition 4.2 semantics via d-hop Bellman-Ford (Θ(n·d·m), tests) or
/// the Dijkstra shortcut dist instead of dist^d (valid w.h.p. for exact
/// hop sets; benches).
[[nodiscard]] Graph materialize(const SimulatedGraph& h,
                                bool use_true_hop_distances = true);

}  // namespace pmte
