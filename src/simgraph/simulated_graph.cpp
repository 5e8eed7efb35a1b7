#include "src/simgraph/simulated_graph.hpp"

#include <cmath>

#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

SimulatedGraph::SimulatedGraph(Graph g_prime, unsigned hop_bound,
                               double eps_hat, LevelAssignment levels)
    : g_prime_(std::move(g_prime)),
      d_(hop_bound),
      eps_hat_(eps_hat),
      levels_(std::move(levels)) {
  PMTE_CHECK(levels_.num_vertices() == g_prime_.num_vertices(),
             "level assignment size mismatch");
  PMTE_CHECK(eps_hat_ >= 0.0, "eps_hat must be non-negative");
  PMTE_CHECK(d_ >= 1, "hop bound must be positive");
  scale_.resize(levels_.max_level() + 1);
  for (unsigned lambda = 0; lambda <= levels_.max_level(); ++lambda) {
    scale_[lambda] =
        std::pow(1.0 + eps_hat_,
                 static_cast<double>(levels_.max_level() - lambda));
  }
}

double SimulatedGraph::level_scale(unsigned lambda) const noexcept {
  return lambda < scale_.size() ? scale_[lambda] : 1.0;
}

Weight SimulatedGraph::edge_weight_exact(Vertex v, Vertex w) const {
  if (v == w) return 0.0;
  // dist^d via the frontier-driven scalar engine (== d-hop Bellman-Ford).
  const auto dists = mbf_sssp(g_prime_, v, d_);
  if (!is_finite(dists[w])) return inf_weight();
  return level_scale(levels_.edge_level(v, w)) * dists[w];
}

Graph SimulatedGraph::materialize(bool use_true_hop_distances) const {
  const Vertex n = g_prime_.num_vertices();
  std::vector<std::vector<Weight>> dist(n);
  parallel_for(n, [&](std::size_t v) {
    if (use_true_hop_distances) {
      dist[v] = mbf_sssp(g_prime_, static_cast<Vertex>(v), d_);
    } else {
      dist[v] = dijkstra(g_prime_, static_cast<Vertex>(v)).dist;
    }
  });
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex w = v + 1; w < n; ++w) {
      if (!is_finite(dist[v][w]) || dist[v][w] <= 0.0) continue;
      edges.push_back(WeightedEdge{
          v, w, level_scale(levels_.edge_level(v, w)) * dist[v][w]});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

SimulatedGraph build_simulated_graph(const Graph& g, const HopSet& hopset,
                                     double eps_hat, Rng& rng) {
  PMTE_OBS_SPAN("simgraph.build", static_cast<std::int64_t>(g.num_vertices()),
                "vertices");
  Graph g_prime = hopset.apply(g);
  auto levels = LevelAssignment::sample(g.num_vertices(), rng);
  return SimulatedGraph(std::move(g_prime), hopset.d, eps_hat,
                        std::move(levels));
}

}  // namespace pmte
