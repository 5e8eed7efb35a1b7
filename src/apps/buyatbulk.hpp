#pragma once
// Buy-at-bulk network design via FRT trees (Section 10, Theorem 10.2).
//
// Following Awerbuch–Azar [5] / Blelloch et al. [10]:
//   (1) embed G into an FRT tree T (expected stretch O(log n)),
//   (2) route every demand along its unique tree path and buy, per tree
//       edge, the cable mix minimising c_i·⌈d_e/u_i⌉ (Definition 10.1),
//   (3) map the tree solution back to G by realising each loaded tree edge
//       as a graph path (Section 7.5), aggregating flow per graph edge and
//       re-pricing — an O(1)-factor loss.
//
// Baselines: direct shortest-path routing (no consolidation) and the
// fractional lower bound Σ_j d_j·dist(s_j,t_j)·min_i c_i/u_i.
//
// Step (2) runs on the flat serving index: the sampled tree is compacted
// into a serve::FrtIndex, each demand's LCA compares two LCA codes, and
// the bottom-up flow accumulation folds over the index's CSR children.
// test_buyatbulk checks the resulting flows against a parent-climbing
// reference that routes every demand edge by edge (tests/support).

#include <vector>

#include "src/apps/app_counters.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

/// A cable type: buying one copy on edge e adds capacity `capacity` at
/// price `cost` · ω(e).  Multiple copies and mixes are allowed.
struct CableType {
  double capacity = 1.0;
  double cost = 1.0;
};

struct Demand {
  Vertex s = 0;
  Vertex t = 0;
  double amount = 1.0;
};

/// Cheapest cable purchase covering flow f on a unit-length edge.
/// Exact for a single type; for mixes we use the standard greedy-over-types
/// bound min_i c_i·⌈f/u_i⌉ that the algorithm of [10] optimises.
[[nodiscard]] double cable_cost_per_unit_length(
    double flow, const std::vector<CableType>& cables);

struct BabResult {
  double cost = 0.0;        ///< total cost of the solution in G
  double tree_cost = 0.0;   ///< cost of the tree solution (T weights)
  double direct_cost = 0.0; ///< direct shortest-path routing baseline
  double lower_bound = 0.0; ///< fractional LB (no solution can beat it)
  std::size_t loaded_tree_edges = 0;
  std::size_t dijkstra_runs = 0;  ///< path-unfolding cost
  AppQueryCounters counters;      ///< LCA + flow-walk cost on the index
};

struct BabOptions {
  FrtOptions frt;
  bool use_oracle_pipeline = false;  ///< default: direct LE iteration
};

/// Run the FRT-based buy-at-bulk approximation and both baselines.
/// Throws std::logic_error naming the first demand whose endpoint is not a
/// vertex of g or whose amount is negative or not finite.
[[nodiscard]] BabResult buy_at_bulk(const Graph& g,
                                    const std::vector<Demand>& demands,
                                    const std::vector<CableType>& cables,
                                    const BabOptions& opts, Rng& rng);

/// Price a fixed routing: per-edge flows aggregated over the given paths.
[[nodiscard]] double price_paths(const Graph& g,
                                 const std::vector<std::vector<Vertex>>& paths,
                                 const std::vector<double>& amounts,
                                 const std::vector<CableType>& cables);

}  // namespace pmte
