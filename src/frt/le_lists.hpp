#pragma once
// Least-Element (LE) lists (Section 7).
//
// Fixing a uniformly random total order on V, the LE list of v contains
// (dist(v,w), w) exactly for those w that are closer to v than every vertex
// preceding w in the order.  LE lists have length O(log n) w.h.p.
// (Lemma 7.6) and are exactly the information needed to build an FRT tree
// (Section 7.1, steps (3)–(4)).
//
// Computing LE lists is MBF-like (Definition 7.3 / Lemma 7.5): semiring
// Smin,+, semimodule D, filter r = "drop dominated entries".  We represent
// the random order by relabelling vertices with their *rank*: DistanceMap
// keys of all LE states are ranks, so the order comparison is integral.

#include <span>
#include <vector>

#include "src/algebra/distance_map.hpp"
#include "src/graph/graph.hpp"
#include "src/mbf/engine.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

/// The random vertex order: rank_of[v] and its inverse vertex_of[r].
struct VertexOrder {
  std::vector<Vertex> rank_of;    // vertex → rank
  std::vector<Vertex> vertex_of;  // rank → vertex

  static VertexOrder random(Vertex n, Rng& rng);
  static VertexOrder identity(Vertex n);

  [[nodiscard]] Vertex n() const noexcept {
    return static_cast<Vertex>(rank_of.size());
  }
};

/// The MBF-like algebra of Definition 7.3: distance maps with the
/// least-element filter.  r is the representative projection of a
/// congruence (Lemma 7.5, Corollary 2.17), so r(r(x ⊕ y) ⊕ z) =
/// r(x ⊕ y ⊕ z): ⊕ filters as it merges, and a round's gather keeps only
/// the offered entries that beat the receiver's staircase before merging
/// them (DistanceMap::gather_least_elements).  The engine and the oracle
/// call gather; relax and aggregate remain for callers outside them.
///
/// It is the one OutputBoundedAlgebra (mbf_oracle.hpp, "Output-bounded
/// level runs"): the oracle's own copy carries a level's output bound, and
/// gather and drop_bounded drop what that bound rejects.  A copy on which
/// bound_outputs was never called has no bound.
struct LeListAlgebra {
  using State = DistanceMap;

  [[nodiscard]] State bottom() const { return DistanceMap{}; }

  /// Write into `bound` (one weight per rank, x.size() of them) B(k) = max
  /// over v in `outputs` of f_{x_v}(k), where f_x(k) is the dist of x's
  /// entry at the largest rank ≤ k and ∞ below x's first rank, and bound
  /// this algebra by it: from now on gather and drop_bounded drop every
  /// entry (k, d) with d ≥ B(k).  B never rises with the rank.  `bound`
  /// must outlive the algebra's gathers.
  void bound_outputs(std::vector<Weight>& bound,
                     const std::vector<State>& x,
                     std::span<const Vertex> outputs);

  /// Drop the entries of x that the bound rejects (none when unbounded).
  void drop_bounded(State& x) const {
    if (!bound_.empty()) x.drop_at_or_above(bound_);
  }

  void relax(State& acc, Weight w, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    acc.merge_least_elements(x_from, w);
  }

  void aggregate(State& acc, const State& y) const {
    acc.merge_least_elements(y);
  }

  void filter(State& x) const { x.keep_least_elements(); }

  /// out = r(x ⊕ ⊕ offers), without the offered entries the bound rejects;
  /// false (out unwritten) when that is x.
  bool gather(State& out, const State& x,
              std::span<const Offer<State>> offers) const {
    return DistanceMap::gather_least_elements(x, offers, out, bound_);
  }

  /// The engine's per-entry offer (DeltaOfferAlgebra in engine.hpp).
  void offer_delta(State& out, const State& now, const State& before) const {
    out.assign_difference(now, before);
  }

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }

 private:
  std::span<const Weight> bound_;  // empty: unbounded
};

static_assert(MbfAlgebra<LeListAlgebra>);
static_assert(DeltaOfferAlgebra<LeListAlgebra>);
static_assert(GatherAlgebra<LeListAlgebra>);
static_assert(OutputBoundedAlgebra<LeListAlgebra>);

/// x⁽⁰⁾ for LE-list computations: v starts knowing (rank(v), 0).
[[nodiscard]] std::vector<DistanceMap> le_initial_state(
    const VertexOrder& order);

/// LE lists with per-run metadata.
struct LeListsResult {
  std::vector<DistanceMap> lists;  ///< per vertex, keys are ranks
  unsigned iterations = 0;         ///< MBF-like iterations executed
  unsigned base_iterations = 0;    ///< iterations on G' (oracle pipeline)
  bool converged = false;
  /// Oracle-pipeline level-reuse accounting (zero elsewhere).
  unsigned levels_skipped = 0;
  unsigned levels_warm = 0;
  unsigned levels_full = 0;
};

/// Khan-et-al style pipeline (Section 8.1): iterate r^V A_G directly to the
/// fixpoint — Θ(SPD(G)) iterations.
[[nodiscard]] LeListsResult le_lists_iteration(const Graph& g,
                                               const VertexOrder& order,
                                               unsigned max_iterations = 0);

/// The paper's pipeline (Theorem 7.9): run the LE algebra on the simulated
/// graph H through the oracle — O(log² n) H-iterations w.h.p.  Levels are
/// reused across H-iterations (skips + warm restarts, see mbf_oracle.hpp).
/// `max_h_iterations` = 0 selects MbfOracle::run's automatic cap.  The
/// last parameter has no effect; it stays because the frozen lifecycle
/// benchmark (lifecycle_bench/lifecycle.cpp) passes FrtOptions::mbf.
[[nodiscard]] LeListsResult le_lists_oracle(const SimulatedGraph& h,
                                            const VertexOrder& order,
                                            unsigned max_h_iterations = 0,
                                            MbfOptions unused = {});

/// Sequential baseline (Cohen [12] / Mendel–Schwob [33] style): sources in
/// ascending rank order, pruned Dijkstras.  Exact; O(m log² n) expected.
[[nodiscard]] LeListsResult le_lists_sequential(const Graph& g,
                                                const VertexOrder& order);

/// LE lists straight from an explicit metric (row-major n×n), the
/// Blelloch-et-al input model: one filtered pass per vertex, Θ(n²) work.
[[nodiscard]] LeListsResult le_lists_from_metric(
    const std::vector<Weight>& dist, const VertexOrder& order);

}  // namespace pmte
