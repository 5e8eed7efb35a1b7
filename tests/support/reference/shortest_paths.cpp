#include "tests/support/reference/shortest_paths.hpp"

#include <algorithm>

#include "src/graph/shortest_paths.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

std::vector<Weight> bellman_ford_hops(const Graph& g, Vertex source,
                                      unsigned hops) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(source < n, "bellman_ford_hops: source out of range");
  std::vector<Weight> cur(n, inf_weight());
  cur[source] = 0.0;
  std::vector<Weight> next(n);
  for (unsigned h = 0; h < hops; ++h) {
    bool changed = false;
    for (Vertex v = 0; v < n; ++v) {
      Weight best = cur[v];
      for (const auto& e : g.neighbors(v)) {
        if (is_finite(cur[e.to])) best = std::min(best, cur[e.to] + e.weight);
      }
      next[v] = best;
      changed |= best < cur[v];
    }
    cur.swap(next);
    if (!changed) break;  // fixpoint: dist^h == dist
  }
  return cur;
}

DiameterInfo shortest_path_diameter(const Graph& g) {
  const Vertex n = g.num_vertices();
  DiameterInfo info;
  if (n == 0) return info;
  std::vector<unsigned> spd_per_source(n, 0);
  std::vector<unsigned> hop_per_source(n, 0);
  parallel_for(n, [&](std::size_t v) {
    const auto hops =
        min_hops_on_shortest_paths(g, static_cast<Vertex>(v)).hops;
    unsigned worst = 0;
    for (unsigned h : hops)
      if (h != ~0U) worst = std::max(worst, h);
    spd_per_source[v] = worst;
    const auto bfs = bfs_hops(g, static_cast<Vertex>(v));
    unsigned bworst = 0;
    for (unsigned h : bfs)
      if (h != ~0U) bworst = std::max(bworst, h);
    hop_per_source[v] = bworst;
  });
  for (Vertex v = 0; v < n; ++v) {
    info.spd = std::max(info.spd, spd_per_source[v]);
    info.hop_diam = std::max(info.hop_diam, hop_per_source[v]);
  }
  return info;
}

bool is_connected(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n == 0) return true;
  const auto hops = bfs_hops(g, 0);
  return std::none_of(hops.begin(), hops.end(),
                      [](unsigned h) { return h == ~0U; });
}

std::vector<Weight> exact_apsp(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Weight> dist(static_cast<std::size_t>(n) * n, inf_weight());
  parallel_for(n, [&](std::size_t v) {
    const auto r = dijkstra(g, static_cast<Vertex>(v));
    std::copy(r.dist.begin(), r.dist.end(),
              dist.begin() + static_cast<std::ptrdiff_t>(v * n));
  });
  return dist;
}

}  // namespace pmte
