#include "tests/support/reference/simulated_graph.hpp"

#include <vector>

#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/parallel/parallel.hpp"

namespace pmte {

Weight edge_weight_exact(const SimulatedGraph& h, Vertex v, Vertex w) {
  if (v == w) return 0.0;
  // dist^d via the frontier-driven scalar engine (== d-hop Bellman-Ford).
  const auto dists = mbf_sssp(h.base(), v, h.hop_bound());
  if (!is_finite(dists[w])) return inf_weight();
  return h.level_scale(h.levels().edge_level(v, w)) * dists[w];
}

Graph materialize(const SimulatedGraph& h, bool use_true_hop_distances) {
  const Graph& g_prime = h.base();
  const Vertex n = g_prime.num_vertices();
  std::vector<std::vector<Weight>> dist(n);
  parallel_for(n, [&](std::size_t v) {
    if (use_true_hop_distances) {
      dist[v] = mbf_sssp(g_prime, static_cast<Vertex>(v), h.hop_bound());
    } else {
      dist[v] = dijkstra(g_prime, static_cast<Vertex>(v)).dist;
    }
  });
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex w = v + 1; w < n; ++w) {
      if (!is_finite(dist[v][w]) || dist[v][w] <= 0.0) continue;
      edges.push_back(WeightedEdge{
          v, w, h.level_scale(h.levels().edge_level(v, w)) * dist[v][w]});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

}  // namespace pmte
