#pragma once
// k-median approximation via FRT trees (Section 9, Theorem 9.2).
//
// Pipeline (following Blelloch et al. [10], generalised from metric inputs
// to graphs):
//   (1) Mettu–Plaxton-style successive sampling produces a candidate set Q
//       with |Q| ∈ O(k·log(n/k)) containing an O(1)-approximate solution.
//   (2) Sample an FRT tree of the submetric spanned by Q (LE lists with
//       sources restricted to Q); every vertex of V is attached to its
//       closest candidate, giving client weights on the leaves.
//   (3) An exact dynamic program solves weighted k-median on the HST; its
//       expected cost is an O(log k)-approximation of the graph optimum.
//
// The returned centers are evaluated on the *graph* objective
// Σ_v dist(v, F, G), the quantity Definition 9.1 asks for.
//
// The HST step runs on the flat serving index: the sampled FrtTree is
// compacted into a serve::FrtIndex and the condensation walks the index's
// CSR children arrays, one tree_lookup per visited node (AppQueryCounters).

#include <cstddef>
#include <vector>

#include "src/apps/app_counters.hpp"
#include "src/frt/frt_tree.hpp"
#include "src/graph/graph.hpp"
#include "src/serve/frt_index.hpp"
#include "src/util/rng.hpp"

namespace pmte {

struct KMedianOptions {
  std::size_t trees = 3;            ///< FRT samples; best result is kept
  double candidate_factor = 3.0;    ///< per-round sample size = factor·k
  std::size_t min_candidates = 8;
};

struct KMedianResult {
  std::vector<Vertex> centers;  ///< |centers| ≤ k
  double cost = 0.0;            ///< Σ_v dist(v, centers, G)
  double tree_cost = 0.0;       ///< DP objective on the chosen tree
  std::size_t candidates = 0;   ///< |Q|
  AppQueryCounters counters;    ///< tree-walk cost, summed over all trees
};

/// Graph k-median objective Σ_v dist(v, F, G).
[[nodiscard]] double kmedian_cost(const Graph& g,
                                  const std::vector<Vertex>& centers);

/// The FRT-based approximation (Theorem 9.2).
[[nodiscard]] KMedianResult kmedian_frt(const Graph& g, std::size_t k,
                                        const KMedianOptions& opts, Rng& rng);

/// Local-search baseline (single swaps, 5-approximation in the limit);
/// `max_rounds` bounds the number of improving sweeps.
[[nodiscard]] KMedianResult kmedian_local_search(const Graph& g,
                                                 std::size_t k,
                                                 unsigned max_rounds,
                                                 Rng& rng);

/// Uniformly random centers (sanity baseline).
[[nodiscard]] KMedianResult kmedian_random(const Graph& g, std::size_t k,
                                           Rng& rng);

/// Exact weighted k-median on an FRT tree, given as its flat serving index
/// (exposed for testing): clients sit at the leaves with weights,
/// facilities may open at any leaf, at most k open.  Unary chains are
/// condensed away first; leaf-to-leaf distances are rebuilt from the
/// index's per-level edge weights.  Returns chosen leaf vertices and the
/// optimal tree cost.
struct TreeKMedian {
  std::vector<Vertex> centers;  ///< leaf vertices (tree-local ids)
  double cost = 0.0;
  AppQueryCounters counters;
};
[[nodiscard]] TreeKMedian solve_kmedian_on_index(
    const serve::FrtIndex& index, const std::vector<double>& leaf_weight,
    std::size_t k);

}  // namespace pmte
