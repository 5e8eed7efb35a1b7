#include "src/frt/dynamic_frt.hpp"

#include <algorithm>
#include <cmath>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

DynamicFrt::DynamicFrt(const SimulatedGraph& h, Rng& rng,
                       const FrtOptions& opts)
    : h_(&h),
      opts_(opts),
      beta_(sample_beta(rng)),  // β before the order — the pipeline's draw
      order_(VertexOrder::random(h.num_vertices(), rng)),
      oracle_(h, alg_, opts.mbf) {
  states_ = le_initial_state(order_);
  mbf_filter(alg_, states_);  // r^V x⁽⁰⁾, as oracle_run does
  run_to_fixpoint(nullptr);
  hint_ = min_distance_hint(h.base());
  tree_ = FrtTree::build(states_, order_, beta_, hint_, opts_.rule);
}

void DynamicFrt::run_to_fixpoint(const std::vector<Vertex>* changed0) {
  unsigned cap = opts_.max_iterations;
  if (cap == 0) {
    // le_lists_oracle's automatic bound: SPD(H) ∈ O(log² n) w.h.p.
    const double n = std::max<double>(h_->num_vertices(), 2);
    const double log_n = std::log2(n);
    cap = static_cast<unsigned>(std::max(8.0, 4.0 * log_n * log_n));
  }
  converged_ = false;
  PerThreadBuffers<Vertex> buffers;
  std::vector<Vertex> changed;
  const std::vector<Vertex>* changed_ptr = changed0;
  for (unsigned i = 0; i < cap; ++i) {
    auto next = oracle_.step(states_, changed_ptr);
    buffers.clear();
    parallel_for(next.size(), [&](std::size_t v) {
      if (!alg_.equal(next[v], states_[v])) {
        buffers.local().push_back(static_cast<Vertex>(v));
      }
    });
    buffers.drain_sorted(changed);
    states_ = std::move(next);
    if (changed.empty()) {
      converged_ = true;
      break;
    }
    changed_ptr = &changed;
  }
}

bool DynamicFrt::apply_update(const WeightedEdge& edge, Weight new_weight) {
  const OracleUpdateKind kind = oracle_.update(edge, new_weight);
  last_incremental_ = kind == OracleUpdateKind::kIncremental;
  const std::vector<DistanceMap> before = states_;
  if (kind == OracleUpdateKind::kInvalidated) {
    // Increase: the oracle reset to its freshly-constructed state, so this
    // is bit-identical to a brand-new build on the mutated weights.
    states_ = le_initial_state(order_);
    mbf_filter(alg_, states_);
    run_to_fixpoint(nullptr);
  } else {
    // Decrease: continue from the retained caches.  The changed list is
    // *empty*, not nullptr — no state changed, the weights did; the
    // oracle's pending touch forces each level to re-run once.
    const std::vector<Vertex> none;
    run_to_fixpoint(&none);
  }
  const Weight hint = min_distance_hint(h_->base());
  const bool changed = hint != hint_ || states_ != before;
  if (changed) {
    hint_ = hint;
    tree_ = FrtTree::build(states_, order_, beta_, hint_, opts_.rule);
  }
  return changed;
}

}  // namespace pmte
