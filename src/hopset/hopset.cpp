#include "src/hopset/hopset.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "src/graph/shortest_paths.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

namespace {

/// Oversampling constant c in the hub probability c·ln(n)/d0.
constexpr double kSamplingConstant = 2.0;

/// Hub hop-set decisions, bound once on first use (logical counts —
/// deterministic at any thread count).
struct HopsetObs {
  obs::Counter& kept;
  obs::Counter& dropped;
};

HopsetObs& hopset_obs() {
  auto& reg = obs::registry();
  static HopsetObs o{
      reg.counter("pmte_hopset_builds_total", {{"shortcuts", "kept"}},
                  "Hub hop-set builds, by whether the hub clique was kept"),
      reg.counter("pmte_hopset_builds_total", {{"shortcuts", "dropped"}},
                  "Hub hop-set builds, by whether the hub clique was kept"),
  };
  return o;
}

}  // namespace

HopSet build_hub_hopset(const Graph& g, HubHopSetParams params, Rng& rng) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(n >= 1, "hop set needs a non-empty graph");
  PMTE_OBS_SPAN("hopset.build", static_cast<std::int64_t>(n), "vertices");
  HopSet hs;

  unsigned d0 = params.window;
  if (d0 == 0) {
    d0 = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(n) *
                            std::log(std::max<double>(n, 2)))));
  }
  d0 = std::max(1U, std::min(d0, n));

  const double ln_n = std::log(std::max<double>(n, 2));
  const double p = std::min(1.0, kSamplingConstant * ln_n /
                                     static_cast<double>(d0));
  std::vector<Vertex> hubs;
  for (Vertex v = 0; v < n; ++v) {
    if (rng.flip(p)) hubs.push_back(v);
  }
  if (hubs.empty()) hubs.push_back(static_cast<Vertex>(rng.below(n)));
  hs.num_hubs = hubs.size();

  // One (dist, hops) Dijkstra per hub gives the exact hub-to-hub distances
  // (an edge of weight dist(a,b) can never shorten a path) and hop(hub, ·).
  // Each search folds its hop row into h_max (the most hops from any hub)
  // and nearest (each vertex's fewest hops to a hub) as it ends; max and
  // min are order-free, so any schedule gives the same fold.  A search
  // costs far more than a lock, so grain 1 deals them out one at a time.
  std::vector<std::vector<Weight>> hub_dist(hubs.size());
  unsigned h_max = 0;
  std::vector<unsigned> nearest(n, ~0U);
  std::mutex fold_mutex;
  parallel_for(
      hubs.size(),
      [&](std::size_t i) {
        const auto r = min_hops_on_shortest_paths(g, hubs[i]);
        hub_dist[i].reserve(hubs.size());
        for (const Vertex b : hubs) hub_dist[i].push_back(r.dist[b]);
        const std::lock_guard<std::mutex> lock(fold_mutex);
        for (Vertex v = 0; v < n; ++v) {
          const unsigned h = r.hops[v];
          if (h == ~0U) continue;
          h_max = std::max(h_max, h);
          nearest[v] = std::min(nearest[v], h);
        }
      },
      /*grain=*/1);

  // radius: the most hops from any vertex to its nearest hub.
  unsigned radius = 0;
  for (const unsigned h : nearest) {
    if (h != ~0U) radius = std::max(radius, h);
  }

  // Keep the clique only if it at least halves hop counts (hopset.hpp).
  if (h_max <= 2 * (2 * radius + 1)) {
    hs.d = std::max(1U, std::min(n - 1, d0 + h_max));
    if (obs::metrics_on()) hopset_obs().dropped.add(1);
    return hs;
  }
  hs.d = std::max(2 * d0, 1U);
  if (obs::metrics_on()) hopset_obs().kept.add(1);
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    for (std::size_t j = i + 1; j < hubs.size(); ++j) {
      const Weight d = hub_dist[i][j];
      if (is_finite(d) && d > 0.0) {
        hs.edges.push_back(WeightedEdge{hubs[i], hubs[j], d});
      }
    }
  }
  return hs;
}

}  // namespace pmte
