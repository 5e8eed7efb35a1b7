#include "tests/support/reference/hopset.hpp"

#include <algorithm>
#include <vector>

#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/parallel/parallel.hpp"

namespace pmte {

HopSet build_exact_hopset(const Graph& g) {
  const Vertex n = g.num_vertices();
  HopSet hs;
  hs.d = 1;
  hs.num_hubs = n;
  std::vector<std::vector<Weight>> dist(n);
  parallel_for(n, [&](std::size_t v) {
    dist[v] = dijkstra(g, static_cast<Vertex>(v)).dist;
  });
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (is_finite(dist[u][v]) && dist[u][v] > 0.0) {
        hs.edges.push_back(WeightedEdge{u, v, dist[u][v]});
      }
    }
  }
  return hs;
}

double measure_hopset_stretch(const Graph& g, const HopSet& hopset,
                              std::size_t sample_sources, Rng& rng) {
  const Vertex n = g.num_vertices();
  if (n == 0) return 1.0;
  const Graph gp = hopset.apply(g);
  std::vector<Vertex> sources;
  if (sample_sources >= n) {
    sources.resize(n);
    for (Vertex v = 0; v < n; ++v) sources[v] = v;
  } else {
    for (std::size_t i = 0; i < sample_sources; ++i)
      sources.push_back(static_cast<Vertex>(rng.below(n)));
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  }
  std::vector<double> worst(sources.size(), 1.0);
  parallel_for(sources.size(), [&](std::size_t i) {
    const Vertex s = sources[i];
    const auto exact = dijkstra(g, s).dist;
    // dist^d(s,·,G') through the frontier-driven engine: identical values
    // to d-hop Bellman-Ford, but only edges incident to the shrinking
    // changed set are relaxed per round.
    const auto hop = mbf_sssp(gp, s, hopset.d);
    double w = 1.0;
    for (Vertex v = 0; v < n; ++v) {
      if (v == s || !is_finite(exact[v]) || exact[v] <= 0.0) continue;
      w = std::max(w, hop[v] / exact[v]);
    }
    worst[i] = w;
  });
  return *std::max_element(worst.begin(), worst.end());
}

}  // namespace pmte
