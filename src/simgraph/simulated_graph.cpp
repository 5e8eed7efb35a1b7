#include "src/simgraph/simulated_graph.hpp"

#include <cmath>

#include "src/obs/obs.hpp"
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
