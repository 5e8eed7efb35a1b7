#include "tests/support/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/shortest_paths.hpp"

namespace pmte::test {

std::vector<Weight> dijkstra_reference(const Graph& g, Vertex source) {
  return dijkstra(g, source).dist;
}

std::vector<DistanceMap> brute_force_le_lists(const Graph& g,
                                              const VertexOrder& order) {
  const Vertex n = g.num_vertices();
  const auto apsp = exact_apsp(g);
  std::vector<DistanceMap> lists(n);
  for (Vertex v = 0; v < n; ++v) {
    std::vector<DistEntry> entries;
    for (Vertex w = 0; w < n; ++w) {
      const Weight d = apsp[static_cast<std::size_t>(v) * n + w];
      if (is_finite(d)) entries.push_back(DistEntry{order.rank_of[w], d});
    }
    // Definition 7.3 verbatim, independent of DistanceMap's filter: w is in
    // v's list iff no u of smaller rank has dist(v,u) <= dist(v,w).
    std::vector<DistEntry> kept;
    for (const auto& e : entries) {
      const bool dominated =
          std::any_of(entries.begin(), entries.end(), [&e](const DistEntry& f) {
            return f.key < e.key && f.dist <= e.dist;
          });
      if (!dominated) kept.push_back(e);
    }
    lists[v] = DistanceMap::from_entries(std::move(kept));
  }
  return lists;
}

void expect_valid_le_lists(const std::vector<DistanceMap>& lists,
                           const VertexOrder& order) {
  ASSERT_EQ(lists.size(), order.n());
  for (Vertex v = 0; v < order.n(); ++v) {
    EXPECT_TRUE(lists[v].is_least_element_list()) << "vertex " << v;
    // Own entry at distance 0.
    EXPECT_DOUBLE_EQ(lists[v].at(order.rank_of[v]), 0.0) << "vertex " << v;
    // Rank-0 vertex present in every list of a connected graph.
    EXPECT_TRUE(is_finite(lists[v].at(0))) << "vertex " << v;
  }
}

BabTreeFlow bab_tree_flow_reference(const FrtTree& tree,
                                    const std::vector<Demand>& demands,
                                    const std::vector<CableType>& cables) {
  std::vector<double> flow(tree.num_nodes(), 0.0);  // over each parent edge
  for (const auto& d : demands) {
    // Leaves all sit at level 0, so the two climbs meet at the LCA.
    auto a = tree.leaf_of(d.s);
    auto b = tree.leaf_of(d.t);
    while (a != b) {
      flow[a] += d.amount;
      flow[b] += d.amount;
      a = tree.node(a).parent;
      b = tree.node(b).parent;
    }
  }
  BabTreeFlow out;
  for (auto id = static_cast<FrtTree::NodeId>(tree.num_nodes()); id-- > 0;) {
    const auto& nd = tree.node(id);
    if (nd.parent != FrtTree::invalid_node && flow[id] > 1e-12) {
      out.tree_cost +=
          cable_cost_per_unit_length(flow[id], cables) * nd.parent_edge;
      ++out.loaded_tree_edges;
    }
  }
  return out;
}

}  // namespace pmte::test
