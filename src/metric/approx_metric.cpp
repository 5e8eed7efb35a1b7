#include "src/metric/approx_metric.hpp"

#include <algorithm>

#include "src/frt/pipelines.hpp"  // resolve_eps_hat
#include "src/mbf/algebras.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/parallel/counters.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "src/spanner/baswana_sen.hpp"
#include "src/util/assertions.hpp"
#include "src/util/timer.hpp"

namespace pmte {

MetricResult approximate_metric(const Graph& g,
                                const ApproxMetricOptions& opts, Rng& rng) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(n >= 1, "empty graph");
  const Timer timer;
  const WorkDepthScope scope;
  MetricResult r;

  auto hopset = build_hub_hopset(g, opts.hopset, rng);
  r.hopset_edges = hopset.edges.size();
  const double eps = resolve_eps_hat(opts.eps_hat, n);
  const auto h = build_simulated_graph(g, hopset, eps, rng);

  // APSP is source detection with S = V, k = n, unbounded distance
  // (Example 3.5): the identity filter over D.
  SourceDetectionAlgebra alg;  // defaults: k = ∞, max_dist = ∞
  std::vector<DistanceMap> x0(n);
  for (Vertex v = 0; v < n; ++v) x0[v] = DistanceMap::singleton(v, 0.0);

  OracleStats stats;
  auto run = oracle_run(h, alg, std::move(x0), /*max_h_iterations=*/0,
                        &stats);

  r.dist.assign(static_cast<std::size_t>(n) * n, inf_weight());
  for (Vertex v = 0; v < n; ++v) {
    r.dist[static_cast<std::size_t>(v) * n + v] = 0.0;
    for (const auto& e : run.states[v].entries()) {
      r.dist[static_cast<std::size_t>(v) * n + e.key] = e.dist;
    }
  }
  r.h_iterations = stats.h_iterations;
  r.base_iterations = stats.base_iterations;
  r.work = scope.work_delta();
  r.seconds = timer.seconds();
  return r;
}

MetricResult approximate_metric_spanner(const Graph& g, unsigned spanner_k,
                                        const ApproxMetricOptions& opts,
                                        Rng& rng) {
  const Timer timer;
  auto sp = baswana_sen_spanner(g, spanner_k, rng);
  auto r = approximate_metric(sp.spanner, opts, rng);
  r.spanner_edges = sp.edges;
  r.seconds = timer.seconds();
  return r;
}

double metric_stretch(const std::vector<Weight>& approx,
                      const std::vector<Weight>& exact) {
  PMTE_CHECK(approx.size() == exact.size(), "metric size mismatch");
  double worst = 1.0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    if (!is_finite(exact[i]) || exact[i] <= 0.0) continue;
    worst = std::max(worst, approx[i] / exact[i]);
  }
  return worst;
}

}  // namespace pmte
