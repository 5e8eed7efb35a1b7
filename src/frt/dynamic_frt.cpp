#include "src/frt/dynamic_frt.hpp"

namespace pmte {

DynamicFrt::DynamicFrt(const SimulatedGraph& h, Rng& rng,
                       const FrtOptions& opts)
    : h_(&h),
      opts_(opts),
      beta_(sample_beta(rng)),  // β before the order — the pipeline's draw
      order_(VertexOrder::random(h.num_vertices(), rng)),
      oracle_(h, alg_, le_initial_state(order_)) {
  oracle_.run(opts_.max_iterations);
  hint_ = min_distance_hint(h.base());
  tree_ = FrtTree::build(lists(), order_, beta_, hint_, opts_.rule);
}

bool DynamicFrt::apply_update(const WeightedEdge& edge, Weight new_weight) {
  const std::vector<DistanceMap> before = lists();
  // A decrease continues from the retained caches; an increase restarts
  // the oracle — bit-identical to a brand-new build on the new weights.
  last_incremental_ =
      oracle_.update(edge, new_weight) == OracleUpdateKind::kIncremental;
  oracle_.run(opts_.max_iterations);
  const Weight hint = min_distance_hint(h_->base());
  const bool changed = hint != hint_ || lists() != before;
  if (changed) {
    hint_ = hint;
    tree_ = FrtTree::build(lists(), order_, beta_, hint_, opts_.rule);
  }
  return changed;
}

}  // namespace pmte
