#include "tests/support/reference/delta_stepping.hpp"

#include <algorithm>
#include <cmath>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

DeltaSteppingResult delta_stepping(const Graph& g, Vertex source,
                                   Weight delta) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(source < n, "delta_stepping: source out of range");
  DeltaSteppingResult r;
  r.dist.assign(n, inf_weight());
  if (delta <= 0.0) {
    delta = g.num_edges() > 0
                ? std::max(g.total_weight() /
                               static_cast<double>(g.num_edges()),
                           g.min_edge_weight())
                : 1.0;
  }

  // Buckets as a growable vector of vertex lists indexed by
  // floor(dist/Δ); duplicates are tolerated and filtered at pop time.
  std::vector<std::vector<Vertex>> buckets;
  auto bucket_of = [&](Weight d) {
    return static_cast<std::size_t>(d / delta);
  };
  auto push = [&](Vertex v, Weight d) {
    const std::size_t b = bucket_of(d);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  };
  r.dist[source] = 0.0;
  push(source, 0.0);

  for (std::size_t b = 0; b < buckets.size(); ++b) {
    // Settle bucket b: relax light edges until no vertex re-enters it.
    std::vector<Vertex> settled;
    while (b < buckets.size() && !buckets[b].empty()) {
      std::vector<Vertex> frontier;
      frontier.swap(buckets[b]);
      // Deduplicate stale entries.
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()),
                     frontier.end());
      std::erase_if(frontier, [&](Vertex v) {
        return bucket_of(r.dist[v]) != b;
      });
      if (frontier.empty()) break;
      ++r.relaxations;
      settled.insert(settled.end(), frontier.begin(), frontier.end());
      // Parallel relaxation of light edges: compute tentative updates per
      // frontier vertex, apply sequentially (requests are tiny).
      std::vector<std::vector<std::pair<Vertex, Weight>>> requests(
          frontier.size());
      parallel_for(frontier.size(), [&](std::size_t i) {
        const Vertex v = frontier[i];
        const Weight dv = r.dist[v];
        for (const auto& e : g.neighbors(v)) {
          if (e.weight < delta) {
            requests[i].emplace_back(e.to, dv + e.weight);
          }
        }
      });
      for (const auto& reqs : requests) {
        for (const auto& [to, nd] : reqs) {
          if (nd < r.dist[to]) {
            r.dist[to] = nd;
            push(to, nd);
          }
        }
      }
    }
    // One heavy-edge pass over everything settled in this bucket.
    if (!settled.empty()) {
      std::sort(settled.begin(), settled.end());
      settled.erase(std::unique(settled.begin(), settled.end()),
                    settled.end());
      std::vector<std::vector<std::pair<Vertex, Weight>>> requests(
          settled.size());
      parallel_for(settled.size(), [&](std::size_t i) {
        const Vertex v = settled[i];
        const Weight dv = r.dist[v];
        for (const auto& e : g.neighbors(v)) {
          if (e.weight >= delta) {
            requests[i].emplace_back(e.to, dv + e.weight);
          }
        }
      });
      for (const auto& reqs : requests) {
        for (const auto& [to, nd] : reqs) {
          if (nd < r.dist[to]) {
            r.dist[to] = nd;
            push(to, nd);
          }
        }
      }
    }
    ++r.phases;
  }
  return r;
}

}  // namespace pmte
