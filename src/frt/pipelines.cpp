#include "src/frt/pipelines.hpp"

#include <algorithm>
#include <cmath>

#include "src/graph/shortest_paths.hpp"
#include "src/parallel/counters.hpp"
#include "src/util/assertions.hpp"
#include "src/util/timer.hpp"

namespace pmte {

double resolve_eps_hat(double requested, Vertex n) {
  if (requested > 0.0) return requested;
  // ε̂ = 1/⌈log₂ n⌉² keeps the embedding distortion
  // (1+ε̂)^{Λ+1} ≈ e^{O(1/log n)} = 1 + o(1)  (Equation (4.16)); the
  // exponent of the polylog is "under our control" per the paper.
  const double log_n = std::ceil(std::max(1.0, std::log2(std::max<double>(n, 2))));
  return 1.0 / (log_n * log_n);
}

Weight min_distance_hint(const Graph& g) {
  const Weight w = g.min_edge_weight();
  return is_finite(w) ? w : 1.0;
}

namespace {

std::size_t max_list_length(const LeListsResult& le) {
  std::size_t worst = 0;
  for (const auto& l : le.lists) worst = std::max(worst, l.size());
  return worst;
}

FrtSample finish_sample(LeListsResult le, VertexOrder order, double beta,
                        Weight dist_min_hint, const FrtOptions& opts,
                        const WorkDepthScope& scope, const Timer& timer) {
  FrtSample s;
  s.beta = beta;
  s.iterations = le.iterations;
  s.base_iterations = le.base_iterations;
  s.levels_skipped = le.levels_skipped;
  s.levels_warm = le.levels_warm;
  s.levels_full = le.levels_full;
  s.max_list_length = max_list_length(le);
  s.tree = FrtTree::build(le.lists, order, beta, dist_min_hint, opts.rule);
  s.order = std::move(order);
  s.work = scope.work_delta();
  s.relaxations = scope.relaxations_delta();
  s.edges_touched = scope.edges_touched_delta();
  s.seconds = timer.seconds();
  return s;
}

}  // namespace

FrtSample sample_frt_direct(const Graph& g, Rng& rng,
                            const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  const Timer timer;
  const WorkDepthScope scope;
  const double beta = sample_beta(rng);
  auto order = VertexOrder::random(g.num_vertices(), rng);
  auto le = le_lists_iteration(g, order, opts.max_iterations);
  return finish_sample(std::move(le), std::move(order), beta,
                       min_distance_hint(g), opts, scope, timer);
}

FrtSample sample_frt_oracle(const Graph& g, Rng& rng,
                            const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  const Timer timer;
  const WorkDepthScope scope;
  auto hopset = build_hub_hopset(g, opts.hopset, rng);
  const double eps = resolve_eps_hat(opts.eps_hat, g.num_vertices());
  auto h = build_simulated_graph(g, hopset, eps, rng);
  auto sample = sample_frt_oracle_on(h, rng, opts);
  sample.hopset_edges = hopset.edges.size();
  sample.seconds = timer.seconds();
  sample.work = scope.work_delta();
  sample.relaxations = scope.relaxations_delta();
  sample.edges_touched = scope.edges_touched_delta();
  return sample;
}

FrtSample sample_frt_oracle_on(const SimulatedGraph& h, Rng& rng,
                               const FrtOptions& opts) {
  const Timer timer;
  const WorkDepthScope scope;
  const double beta = sample_beta(rng);
  auto order = VertexOrder::random(h.num_vertices(), rng);
  auto le = le_lists_oracle(h, order, opts.max_iterations);
  // Distances in H lower-bound to the minimum edge weight of G' (every H
  // edge weighs (1+ε̂)^{≥0}·dist^d ≥ dist ≥ min edge weight).
  return finish_sample(std::move(le), std::move(order), beta,
                       min_distance_hint(h.base()), opts, scope, timer);
}

SimulatedGraph ensemble_simulated_graph(const Graph& g,
                                        std::uint64_t master_seed,
                                        const FrtOptions& opts) {
  Rng shared(split_seed(master_seed, 0));
  const auto hopset = build_hub_hopset(g, opts.hopset, shared);
  return build_simulated_graph(
      g, hopset, resolve_eps_hat(opts.eps_hat, g.num_vertices()), shared);
}

FrtSample sample_frt_metric(const std::vector<Weight>& metric, Vertex n,
                            Weight dist_min_hint, Rng& rng,
                            const FrtOptions& opts) {
  const Timer timer;
  const WorkDepthScope scope;
  const double beta = sample_beta(rng);
  auto order = VertexOrder::random(n, rng);
  auto le = le_lists_from_metric(metric, order);
  return finish_sample(std::move(le), std::move(order), beta, dist_min_hint,
                       opts, scope, timer);
}

FrtSample sample_frt_sequential(const Graph& g, Rng& rng,
                                const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  const Timer timer;
  const WorkDepthScope scope;
  const double beta = sample_beta(rng);
  auto order = VertexOrder::random(g.num_vertices(), rng);
  auto le = le_lists_sequential(g, order);
  return finish_sample(std::move(le), std::move(order), beta,
                       min_distance_hint(g), opts, scope, timer);
}

}  // namespace pmte
