#include "tests/support/reference/stretch.hpp"

#include <algorithm>

#include "src/graph/shortest_paths.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

PairSample sample_pairs(const Graph& g, std::size_t num_sources,
                        std::size_t max_pairs, Rng& rng) {
  const Vertex n = g.num_vertices();
  PairSample ps;
  if (n < 2) return ps;
  std::vector<Vertex> sources;
  if (num_sources >= n) {
    sources.resize(n);
    for (Vertex v = 0; v < n; ++v) sources[v] = v;
  } else {
    while (sources.size() < num_sources) {
      sources.push_back(static_cast<Vertex>(rng.below(n)));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  }
  const std::size_t per_source =
      std::max<std::size_t>(1, max_pairs / sources.size());
  std::vector<std::vector<Vertex>> targets(sources.size());
  std::vector<std::vector<Weight>> dists(sources.size());
  std::vector<Rng> rngs;
  rngs.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) rngs.push_back(rng.split());
  parallel_for(sources.size(), [&](std::size_t i) {
    const auto sp = dijkstra(g, sources[i]).dist;
    auto& local_rng = rngs[i];
    for (std::size_t t = 0; t < per_source; ++t) {
      const auto w = static_cast<Vertex>(local_rng.below(n));
      if (w == sources[i] || !is_finite(sp[w])) continue;
      targets[i].push_back(w);
      dists[i].push_back(sp[w]);
    }
  });
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t t = 0; t < targets[i].size(); ++t) {
      ps.u.push_back(sources[i]);
      ps.v.push_back(targets[i][t]);
      ps.dist.push_back(dists[i][t]);
    }
  }
  return ps;
}

StretchReport measure_stretch(const PairSample& pairs,
                              const std::vector<FrtTree>& trees) {
  StretchReport rep;
  rep.pairs = pairs.u.size();
  rep.trees = trees.size();
  if (rep.pairs == 0 || rep.trees == 0) return rep;
  std::vector<double> expected(rep.pairs, 0.0);
  std::vector<double> worst(rep.pairs, 0.0);
  std::vector<double> best(rep.pairs, inf_weight());
  parallel_for(rep.pairs, [&](std::size_t p) {
    double sum = 0.0, hi = 0.0, lo = inf_weight();
    for (const auto& t : trees) {
      const double ratio = t.distance(pairs.u[p], pairs.v[p]) / pairs.dist[p];
      sum += ratio;
      hi = std::max(hi, ratio);
      lo = std::min(lo, ratio);
    }
    expected[p] = sum / static_cast<double>(trees.size());
    worst[p] = hi;
    best[p] = lo;
  });
  double total = 0.0;
  rep.min_single_ratio = inf_weight();
  for (std::size_t p = 0; p < rep.pairs; ++p) {
    total += expected[p];
    rep.max_expected_stretch = std::max(rep.max_expected_stretch, expected[p]);
    rep.max_single_ratio = std::max(rep.max_single_ratio, worst[p]);
    rep.min_single_ratio = std::min(rep.min_single_ratio, best[p]);
  }
  rep.avg_expected_stretch = total / static_cast<double>(rep.pairs);
  return rep;
}

}  // namespace pmte
