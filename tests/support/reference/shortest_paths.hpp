#pragma once
// Shortest-path checkers: hop-limited Bellman-Ford (the h-hop distances
// dist^h of Section 1.2), the shortest-path diameter, connectivity and
// exact APSP by n Dijkstras.  Tests and benches compare the MBF engine,
// the hop sets and every pipeline against them; the pipeline itself never
// calls them.

#include <vector>

#include "src/graph/graph.hpp"

namespace pmte {

/// Exact h-hop distances dist^h(source, ·, G) via h rounds of Bellman-Ford
/// (Lemma 3.1 reference).  O(h·m) work.
[[nodiscard]] std::vector<Weight> bellman_ford_hops(const Graph& g,
                                                    Vertex source,
                                                    unsigned hops);

/// Shortest-Path Diameter SPD(G) = max_{v,w} hop(v,w,G) and unweighted hop
/// diameter D(G).  Exact; runs n (multi-criteria) Dijkstras in parallel, so
/// use on bench-sized graphs only.
struct DiameterInfo {
  unsigned spd = 0;      ///< SPD(G)
  unsigned hop_diam = 0; ///< D(G)
};
[[nodiscard]] DiameterInfo shortest_path_diameter(const Graph& g);

/// True iff the graph is connected (n == 0 counts as connected).
[[nodiscard]] bool is_connected(const Graph& g);

/// Exact all-pairs distances via n parallel Dijkstras; row-major n×n.
[[nodiscard]] std::vector<Weight> exact_apsp(const Graph& g);

}  // namespace pmte
