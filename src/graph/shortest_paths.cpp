#include "src/graph/shortest_paths.hpp"

#include <algorithm>
#include <queue>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

namespace {

struct HeapEntry {
  Weight dist;
  Vertex v;
  friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
    return a.dist > b.dist;
  }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

/// Lexicographic (dist, hops) heap entry for min-hop shortest paths.
struct HopEntry {
  Weight dist;
  unsigned hops;
  Vertex v;
  friend bool operator>(const HopEntry& a, const HopEntry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.hops > b.hops;
  }
};

}  // namespace

SsspResult dijkstra(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(source < n, "dijkstra: source out of range");
  SsspResult r;
  r.dist.assign(n, inf_weight());
  r.parent.assign(n, no_vertex());
  MinHeap heap;
  r.dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > r.dist[v]) continue;  // stale entry
    for (const auto& e : g.neighbors(v)) {
      const Weight nd = d + e.weight;
      if (nd < r.dist[e.to]) {
        r.dist[e.to] = nd;
        r.parent[e.to] = v;
        heap.push({nd, e.to});
      }
    }
  }
  return r;
}

MultiSourceResult multi_source_dijkstra(const Graph& g,
                                        std::span<const Vertex> sources) {
  const Vertex n = g.num_vertices();
  MultiSourceResult r;
  r.dist.assign(n, inf_weight());
  r.parent.assign(n, no_vertex());
  r.owner.assign(n, no_vertex());
  MinHeap heap;
  for (Vertex s : sources) {
    PMTE_CHECK(s < n, "multi_source_dijkstra: source out of range");
    if (r.dist[s] > 0.0) {
      r.dist[s] = 0.0;
      r.owner[s] = s;
      heap.push({0.0, s});
    }
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > r.dist[v]) continue;
    for (const auto& e : g.neighbors(v)) {
      const Weight nd = d + e.weight;
      if (nd < r.dist[e.to]) {
        r.dist[e.to] = nd;
        r.parent[e.to] = v;
        r.owner[e.to] = r.owner[v];
        heap.push({nd, e.to});
      }
    }
  }
  return r;
}

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

std::vector<unsigned> bfs_hops(const Graph& g, Vertex source) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(source < n, "bfs_hops: source out of range");
  constexpr unsigned kUnreached = ~0U;
  std::vector<unsigned> hops(n, kUnreached);
  std::vector<Vertex> frontier{source};
  hops[source] = 0;
  unsigned level = 0;
  while (!frontier.empty()) {
    ++level;
    std::vector<Vertex> next;
    for (Vertex v : frontier) {
      for (const auto& e : g.neighbors(v)) {
        if (hops[e.to] == kUnreached) {
          hops[e.to] = level;
          next.push_back(e.to);
        }
      }
    }
    frontier.swap(next);
  }
  return hops;
}

MinHopResult min_hops_on_shortest_paths(const Graph& g, Vertex source) {
  // Dijkstra over the lexicographic key (dist, hops): relaxation keeps the
  // smaller hop count among equal-distance paths, giving hop(source,·,G).
  const Vertex n = g.num_vertices();
  PMTE_CHECK(source < n, "min_hops: source out of range");
  MinHopResult r{std::vector<Weight>(n, inf_weight()),
                 std::vector<unsigned>(n, ~0U)};
  auto& [dist, hops] = r;

  std::priority_queue<HopEntry, std::vector<HopEntry>, std::greater<>> heap;
  dist[source] = 0.0;
  hops[source] = 0;
  heap.push({0.0, 0, source});
  while (!heap.empty()) {
    const auto [d, h, v] = heap.top();
    heap.pop();
    if (d > dist[v] || (d == dist[v] && h > hops[v])) continue;
    for (const auto& e : g.neighbors(v)) {
      const Weight nd = d + e.weight;
      const unsigned nh = h + 1;
      if (nd < dist[e.to] || (nd == dist[e.to] && nh < hops[e.to])) {
        dist[e.to] = nd;
        hops[e.to] = nh;
        heap.push({nd, nh, e.to});
      }
    }
  }
  return r;
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
