#pragma once
// Brute-force reference oracles shared by the test suites: Dijkstra
// distances, exact APSP-based LE lists, the structural LE-list validator,
// Section 7.1's tuples from exact APSP, ancestor rows and node levels
// found by climbing an FRT tree's parent links, and buy-at-bulk's tree
// routing demand by demand.  The oracle's Jacobi reference is a template
// and lives in jacobi_oracle.hpp.

#include <cstddef>
#include <vector>

#include "src/algebra/distance_map.hpp"
#include "src/apps/buyatbulk.hpp"
#include "src/frt/frt_tree.hpp"
#include "src/frt/le_lists.hpp"
#include "src/graph/graph.hpp"

namespace pmte::test {

/// Reference single-source distances (binary-heap Dijkstra).
[[nodiscard]] std::vector<Weight> dijkstra_reference(const Graph& g,
                                                     Vertex source);

/// Brute-force LE lists from exact APSP: per vertex collect every finite
/// (rank, distance) pair and drop each pair that another pair dominates,
/// tested pairwise (Definition 7.3) without DistanceMap's filter — Θ(n³).
[[nodiscard]] std::vector<DistanceMap> brute_force_le_lists(
    const Graph& g, const VertexOrder& order);

/// Structural LE-list invariants: staircase property, own entry at
/// distance 0, rank-0 vertex present (connected graphs).  Reports gtest
/// failures on violation.
void expect_valid_le_lists(const std::vector<DistanceMap>& lists,
                           const VertexOrder& order);

/// Section 7.1 from its definition: tuple(v)[l] is the rank of the
/// lowest-rank w with dist(v, w) ≤ tree.scale(l), dist from exact APSP.
/// Independent of the LE lists and of FrtTree's numbering.
struct FrtTuples {
  unsigned levels = 0;
  std::vector<Vertex> ranks;  ///< v·levels + l → rank

  [[nodiscard]] const Vertex* tuple(Vertex v) const {
    return ranks.data() + std::size_t{v} * levels;
  }
  /// Level of the LCA of the leaves of u and v: one plus the highest level
  /// at which their tuples differ, or 0 when they agree everywhere.
  [[nodiscard]] unsigned lca_level(Vertex u, Vertex v) const;
};
[[nodiscard]] FrtTuples brute_force_tuples(const Graph& g,
                                           const VertexOrder& order,
                                           const FrtTree& tree);

/// v's ancestor row, climbed from its leaf along the parent links:
/// num_levels() node ids, entry l at level l (the leaf first, the root
/// last).
[[nodiscard]] std::vector<FrtTree::NodeId> ancestor_row(const FrtTree& tree,
                                                        Vertex v);

/// Each node's level: num_levels() − 1 minus the parent links it climbs to
/// reach the root, 0.
[[nodiscard]] std::vector<unsigned> node_levels(const FrtTree& tree);

/// Tree side of buy-at-bulk step (2), routed demand by demand: both leaves
/// climb their parent links in lockstep to the LCA, adding the amount to
/// every parent edge they cross; loaded edges are priced at
/// edge_weight(level), summed in descending node id order like
/// buy_at_bulk.
struct BabTreeFlow {
  double tree_cost = 0.0;
  std::size_t loaded_tree_edges = 0;
};
[[nodiscard]] BabTreeFlow bab_tree_flow_reference(
    const FrtTree& tree, const std::vector<Demand>& demands,
    const std::vector<CableType>& cables);

}  // namespace pmte::test
