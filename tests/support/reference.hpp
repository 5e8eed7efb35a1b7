#pragma once
// Brute-force reference oracles shared by the test suites: Dijkstra
// distances, exact APSP-based LE lists, the structural LE-list validator,
// and buy-at-bulk's tree routing by parent climbing.  The oracle's Jacobi
// reference is a template and lives in jacobi_oracle.hpp.

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

/// Tree side of buy-at-bulk step (2), routed demand by demand: both leaves
/// climb FrtTree::Node::parent in lockstep to their LCA, adding the amount
/// to every parent edge they cross; loaded edges are priced at
/// parent_edge, summed in descending node id order like buy_at_bulk.
struct BabTreeFlow {
  double tree_cost = 0.0;
  std::size_t loaded_tree_edges = 0;
};
[[nodiscard]] BabTreeFlow bab_tree_flow_reference(
    const FrtTree& tree, const std::vector<Demand>& demands,
    const std::vector<CableType>& cables);

}  // namespace pmte::test
