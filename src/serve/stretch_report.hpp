#pragma once
// Exact stretch-quality report for a served ensemble.
//
// The FRT guarantee bounds the *expected* stretch of a random tree; the
// test-support reference library estimates that expectation over sampled
// pairs (tests/support/reference/stretch.hpp).  A serving system needs a different number: the quality of the value it
// actually serves — the policy-aggregated ensemble distance.  This module
// measures it *exactly*, against brute-force Dijkstra over every connected
// pair u < v (n single-source runs — corpus-size graphs only, say
// n ≲ 4096):
//
//   distance-weighted average stretch (Kao–Lee–Wagner)
//       Σ_{u<v} dist_served(u,v)  /  Σ_{u<v} dist_G(u,v)
//     = Σ w_p · stretch(p) / Σ w_p with weights w_p = dist_G(p) — long
//       pairs count proportionally to their length, so the metric reflects
//       total routed cost rather than giving a 2-hop pair the same vote as
//       a diameter pair.
//   mean / max / min stretch
//       unweighted mean, worst pair, and best pair of
//       dist_served / dist_G.  min ≥ 1 must hold for dominating policies
//       (min and median over dominating trees both dominate dist_G).
//
// Accumulation order is fixed (ascending u, then ascending v), so the
// report is deterministic for a fixed ensemble at any thread count — the
// parallelism is per-source Dijkstra + per-row query batches.

#include <cstddef>

#include "src/graph/graph.hpp"
#include "src/serve/frt_ensemble.hpp"

namespace pmte::serve {

struct StretchQuality {
  std::size_t pairs = 0;         ///< connected u < v pairs evaluated
  double weighted_stretch = 0.0; ///< Σ served / Σ exact (KLW metric)
  double mean_stretch = 0.0;     ///< unweighted mean of served/exact
  double max_stretch = 0.0;      ///< worst pair
  double min_stretch = 0.0;      ///< best pair (< 1 falsifies dominance)
  double sum_exact = 0.0;        ///< Σ dist_G over the pairs
  double sum_served = 0.0;       ///< Σ served values over the pairs
};

/// Measure the served quality of `ensemble` under `policy` against exact
/// graph distances (n Dijkstras).  Pairs with dist_G = ∞ or 0 (identical
/// or disconnected vertices) are skipped.  Exact and deterministic; cost
/// is O(n·(m + n log n)) plus n²/2 ensemble queries — keep to corpus-size
/// graphs.
[[nodiscard]] StretchQuality measure_stretch_quality(
    const Graph& g, const FrtEnsemble& ensemble, AggregatePolicy policy);

}  // namespace pmte::serve
