#pragma once
// Empirical stretch measurement for tree embeddings (Definition 7.1).
//
// The FRT guarantee is on the *expected* stretch: for every pair v,w,
// E_T[dist(v,w,T)] ≤ O(log n)·dist(v,w,G).  We estimate the expectation by
// sampling several trees and report, over a pair sample, the mean/max of
//    avg_T dist(v,w,T) / dist(v,w,G),
// plus the dominance ratio min dist_T/dist_G (≥ 1 must hold for the
// dominating weight rule).  Tests and benches use it; the served
// ensemble's exact quality is serve::measure_stretch_quality
// (src/serve/stretch_report.hpp).

#include <cstddef>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

struct StretchReport {
  std::size_t pairs = 0;
  std::size_t trees = 0;
  double avg_expected_stretch = 0.0;  ///< mean over pairs of E_T[ratio]
  double max_expected_stretch = 0.0;  ///< max over pairs of E_T[ratio]
  double max_single_ratio = 0.0;      ///< worst ratio of any (pair, tree)
  double min_single_ratio = 0.0;      ///< < 1 would falsify dominance
};

/// Vertex pairs with their exact distances in `g` (Dijkstra from sampled
/// sources); at most `max_pairs` pairs from `num_sources` sources.
struct PairSample {
  std::vector<Vertex> u, v;
  std::vector<Weight> dist;
};
[[nodiscard]] PairSample sample_pairs(const Graph& g, std::size_t num_sources,
                                      std::size_t max_pairs, Rng& rng);

/// Evaluate a set of sampled trees against exact distances.
[[nodiscard]] StretchReport measure_stretch(const PairSample& pairs,
                                            const std::vector<FrtTree>& trees);

}  // namespace pmte
