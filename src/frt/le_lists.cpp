#include "src/frt/le_lists.hpp"

#include <algorithm>
#include <queue>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

VertexOrder VertexOrder::random(Vertex n, Rng& rng) {
  VertexOrder o;
  o.vertex_of = random_permutation(n, rng);
  o.rank_of = invert_permutation(o.vertex_of);
  return o;
}

VertexOrder VertexOrder::identity(Vertex n) {
  VertexOrder o;
  o.vertex_of.resize(n);
  for (Vertex v = 0; v < n; ++v) o.vertex_of[v] = v;
  o.rank_of = o.vertex_of;
  return o;
}

void LeListAlgebra::bound_outputs(std::vector<Weight>& bound,
                                  const std::vector<State>& x,
                                  std::span<const Vertex> outputs) {
  // f_x takes its i-th entry's dist on the ranks [k_i, k_{i+1}) and ∞
  // below k_0, and it falls with the rank, so f_x(k) is the largest value
  // whose ranks end at or after k.  One pass records each value at the last
  // rank it covers; one backward running maximum then yields every B(k).
  const std::size_t n = x.size();
  bound.assign(n, -inf_weight());
  for (const Vertex v : outputs) {
    const auto es = x[v].entries();
    PMTE_CHECK(es.empty() || es.back().key < n,
               "LeListAlgebra::bound_outputs: a key is not a rank");
    const std::size_t first = es.empty() ? n : es.front().key;
    if (first > 0) bound[first - 1] = inf_weight();
    for (std::size_t i = 0; i < es.size(); ++i) {
      const std::size_t last = (i + 1 < es.size() ? es[i + 1].key : n) - 1;
      bound[last] = std::max(bound[last], es[i].dist);
    }
  }
  for (std::size_t k = n; k-- > 1;) {
    bound[k - 1] = std::max(bound[k - 1], bound[k]);
  }
  bound_ = bound;
}

std::vector<DistanceMap> le_initial_state(const VertexOrder& order) {
  std::vector<DistanceMap> x0(order.n());
  for (Vertex v = 0; v < order.n(); ++v) {
    x0[v] = DistanceMap::singleton(order.rank_of[v], 0.0);
  }
  return x0;
}

LeListsResult le_lists_iteration(const Graph& g, const VertexOrder& order,
                                 unsigned max_iterations) {
  PMTE_CHECK(order.n() == g.num_vertices(), "order size mismatch");
  if (max_iterations == 0) {
    max_iterations = g.num_vertices() > 0 ? g.num_vertices() : 1;
  }
  const LeListAlgebra alg;
  auto run = mbf_run(g, alg, le_initial_state(order), max_iterations);
  LeListsResult r;
  r.lists = std::move(run.states);
  r.iterations = run.iterations;
  r.converged = run.reached_fixpoint;
  return r;
}

LeListsResult le_lists_oracle(const SimulatedGraph& h,
                              const VertexOrder& order,
                              unsigned max_h_iterations,
                              MbfOptions /*unused*/) {
  PMTE_CHECK(order.n() == h.num_vertices(), "order size mismatch");
  const LeListAlgebra alg;
  OracleStats stats;
  auto run = oracle_run(h, alg, le_initial_state(order), max_h_iterations,
                        &stats);
  LeListsResult r;
  r.lists = std::move(run.states);
  r.iterations = stats.h_iterations;
  r.base_iterations = stats.base_iterations;
  r.converged = stats.reached_fixpoint;
  r.levels_skipped = stats.levels_skipped;
  r.levels_warm = stats.levels_warm;
  r.levels_full = stats.levels_full;
  return r;
}

namespace {

struct SeqHeapEntry {
  Weight d;
  Vertex v;
  friend bool operator>(const SeqHeapEntry& a, const SeqHeapEntry& b) {
    return a.d > b.d;
  }
};

}  // namespace

LeListsResult le_lists_sequential(const Graph& g, const VertexOrder& order) {
  PMTE_CHECK(order.n() == g.num_vertices(), "order size mismatch");
  const Vertex n = g.num_vertices();
  LeListsResult r;
  r.converged = true;
  std::vector<std::vector<DistEntry>> lists(n);
  // best[u] = min distance from u to any already-processed (lower-rank)
  // source.  A source's Dijkstra prunes at vertices it cannot improve:
  // by the triangle inequality no vertex beyond them can be improved either.
  std::vector<Weight> best(n, inf_weight());
  std::vector<Weight> dist(n, inf_weight());
  std::vector<Vertex> touched;

  std::priority_queue<SeqHeapEntry, std::vector<SeqHeapEntry>, std::greater<>>
      heap;

  for (Vertex rank = 0; rank < n; ++rank) {
    const Vertex s = order.vertex_of[rank];
    if (best[s] <= 0.0) continue;  // dominated at distance 0 — impossible
    heap.push({0.0, s});
    dist[s] = 0.0;
    touched.push_back(s);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist[v]) continue;
      if (d >= best[v]) continue;  // dominated: prune subtree
      lists[v].push_back(DistEntry{rank, d});
      best[v] = d;
      for (const auto& e : g.neighbors(v)) {
        const Weight nd = d + e.weight;
        if (nd < dist[e.to] && nd < best[e.to]) {
          if (!is_finite(dist[e.to])) touched.push_back(e.to);
          dist[e.to] = nd;
          heap.push({nd, e.to});
        }
      }
    }
    for (Vertex v : touched) dist[v] = inf_weight();
    touched.clear();
    ++r.iterations;
  }
  r.lists.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    // Entries were appended in ascending rank and (by domination) strictly
    // descending distance; sort by key to obtain DistanceMap's invariant.
    std::sort(lists[v].begin(), lists[v].end(),
              [](const DistEntry& a, const DistEntry& b) {
                return a.key < b.key;
              });
    r.lists[v] = DistanceMap::from_entries(std::move(lists[v]));
    PMTE_ASSERT(r.lists[v].is_least_element_list(),
                "sequential LE list violates the staircase invariant");
  }
  return r;
}

LeListsResult le_lists_from_metric(const std::vector<Weight>& dist,
                                   const VertexOrder& order) {
  const Vertex n = order.n();
  PMTE_CHECK(dist.size() == static_cast<std::size_t>(n) * n,
             "metric must be n x n");
  LeListsResult r;
  r.lists.resize(n);
  r.iterations = 1;
  r.converged = true;
  parallel_for(n, [&](std::size_t vi) {
    std::vector<DistEntry> entries;
    entries.reserve(n);
    for (Vertex w = 0; w < n; ++w) {
      const Weight d = dist[vi * n + w];
      if (is_finite(d)) entries.push_back(DistEntry{order.rank_of[w], d});
    }
    auto m = DistanceMap::from_entries(std::move(entries));
    m.keep_least_elements();
    r.lists[vi] = std::move(m);
  });
  return r;
}

}  // namespace pmte
