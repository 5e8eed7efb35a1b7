#pragma once
// Classical shortest-path routines: Dijkstra (exact distances, from one
// source or several), BFS hop counts and min-hop shortest paths.  They are
// building blocks of the pipeline and the apps: the hub hop set, the
// exact side of stretch measurement, k-median's assignments, buy-at-bulk's
// routing and CONGEST's diameter estimate.  The baselines and checkers
// built on them (hop-limited Bellman-Ford, SPD, connectivity, exact APSP)
// live in the reference library, tests/support/reference/.

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

}  // namespace pmte
