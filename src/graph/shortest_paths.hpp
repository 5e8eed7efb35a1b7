#pragma once
// Classical shortest-path baselines: Dijkstra (exact distances), hop-limited
// Bellman-Ford (the h-hop distances dist^h of Section 1.2), and BFS hop
// counts.  These serve three roles: reference implementations for testing
// the MBF-like algebra, building blocks of the hub hop set, and the
// sequential baselines the benches compare against.

#include <functional>
#include <span>
#include <vector>

#include "src/graph/graph.hpp"

namespace pmte {

/// Result of a single-source run: per-vertex distance and predecessor.
struct SsspResult {
  std::vector<Weight> dist;
  std::vector<Vertex> parent;  // no_vertex() for unreached / source
};

/// Exact SSSP via binary-heap Dijkstra.  O((n+m) log n).
[[nodiscard]] SsspResult dijkstra(const Graph& g, Vertex source);

/// Multi-source Dijkstra: dist(v, S) for a set of sources (all start at 0).
/// parent points towards the closest source; `owner[v]` is that source.
struct MultiSourceResult {
  std::vector<Weight> dist;
  std::vector<Vertex> parent;
  std::vector<Vertex> owner;
};
[[nodiscard]] MultiSourceResult multi_source_dijkstra(
    const Graph& g, std::span<const Vertex> sources);

/// Exact h-hop distances dist^h(source, ·, G) via h rounds of Bellman-Ford
/// (Lemma 3.1 reference).  O(h·m) work.
[[nodiscard]] std::vector<Weight> bellman_ford_hops(const Graph& g,
                                                    Vertex source,
                                                    unsigned hops);

/// Unweighted hop distances (BFS levels).
[[nodiscard]] std::vector<unsigned> bfs_hops(const Graph& g, Vertex source);

/// Min-hop count among *shortest* (by weight) paths from `source`:
/// hop(source, v, G) of Section 1.2 (~0U when unreached), computed by
/// Dijkstra with lexicographic (dist, hops) keys.  The distances it settles
/// are bit-equal to dijkstra()'s: a hop tie never changes a distance.
struct MinHopResult {
  std::vector<Weight> dist;
  std::vector<unsigned> hops;
};
[[nodiscard]] MinHopResult min_hops_on_shortest_paths(const Graph& g,
                                                      Vertex source);

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
