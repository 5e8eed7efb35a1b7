#pragma once
// Incrementally maintained FRT sample (the dynamic-update path of the P-H
// pipeline, docs/DYNAMIC.md).
//
// sample_frt_oracle_on (pipelines.cpp) is build-once: it draws β and the
// vertex order, runs the LE-list oracle to its fixpoint, builds the tree,
// and throws the oracle away.  DynamicFrt performs the identical build —
// same RNG draw order, same iteration cap, bit-identical lists and tree —
// but *retains* the oracle with its per-level state caches, the order, β,
// and the current LE lists.  An edge-weight change of G' then costs only
// the level re-runs the change actually reaches (MbfOracle::update):
//
//   decrease — the caches warm-restart with the edge endpoints seeded
//              into every level's frontier; iteration continues in place
//              and converges to the new least fixpoint, which is unique,
//              so the lists are bit-identical to a full re-run.
//   increase — the caches reset and the oracle re-runs from r^V x⁽⁰⁾,
//              bit-identical to a freshly built oracle on the new weights.
//
// The tree (and hence the serving index) is rebuilt only when the LE
// lists or the minimum-edge-weight hint actually changed — FrtTree::build
// is a deterministic function of (lists, order, β, hint, rule), so an
// unchanged input means an unchanged tree.
//
// Ownership: the simulated graph H is shared and *mutable elsewhere* —
// the owner (serve::DynamicEnsemble) applies each weight change to the
// shared graph once, then calls apply_update on every maintainer.
// DynamicFrt never mutates H itself.  Not copyable/movable: the retained
// oracle points at internal members.

#include <vector>

#include "src/frt/pipelines.hpp"

namespace pmte {

class DynamicFrt {
 public:
  /// Replicates sample_frt_oracle_on(h, rng, opts) bit-for-bit: draws β
  /// then the order from `rng`, runs the LE oracle to its fixpoint and
  /// builds the tree.  Oracle pipeline only; `h` must outlive the
  /// maintainer.
  DynamicFrt(const SimulatedGraph& h, Rng& rng, const FrtOptions& opts = {});

  DynamicFrt(const DynamicFrt&) = delete;
  DynamicFrt& operator=(const DynamicFrt&) = delete;

  /// Absorb one already-applied G' edge-weight change (the owner mutates
  /// the shared graph *before* this call; `edge` carries the old weight).
  /// Re-runs the retained oracle to the new fixpoint — incrementally after
  /// a decrease, from scratch after an increase — and rebuilds the tree
  /// when the lists or the distance hint changed.  Returns whether the
  /// tree changed (the caller's serving index must then be rebuilt).
  bool apply_update(const WeightedEdge& edge, Weight new_weight);

  [[nodiscard]] const FrtTree& tree() const noexcept { return tree_; }
  /// Current LE lists (keys are ranks).
  [[nodiscard]] const std::vector<DistanceMap>& lists() const noexcept {
    return oracle_.states();
  }
  [[nodiscard]] const VertexOrder& order() const noexcept { return order_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  /// Whether the last oracle run reached its fixpoint within the cap.
  [[nodiscard]] bool converged() const noexcept {
    return oracle_.stats().reached_fixpoint;
  }
  /// Cumulative level-run ledger of the retained oracle (skips/warm/full).
  [[nodiscard]] const OracleStats& oracle_stats() const noexcept {
    return oracle_.stats();
  }
  /// Whether the last apply_update took the incremental (decrease) path.
  [[nodiscard]] bool last_update_incremental() const noexcept {
    return last_incremental_;
  }

 private:
  const SimulatedGraph* h_;
  FrtOptions opts_;
  LeListAlgebra alg_;
  double beta_;
  VertexOrder order_;
  MbfOracle<LeListAlgebra> oracle_;  ///< its iterate: the current LE lists
  Weight hint_ = 1.0;  ///< dist-min hint the tree was built with
  FrtTree tree_;
  bool last_incremental_ = false;
};

}  // namespace pmte
