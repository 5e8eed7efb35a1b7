#include "tests/support/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/shortest_paths.hpp"
#include "tests/support/reference/shortest_paths.hpp"

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

unsigned FrtTuples::lca_level(Vertex u, Vertex v) const {
  const Vertex* tu = tuple(u);
  const Vertex* tv = tuple(v);
  for (unsigned l = levels; l-- > 0;) {
    if (tu[l] != tv[l]) return l + 1;
  }
  return 0;
}

FrtTuples brute_force_tuples(const Graph& g, const VertexOrder& order,
                             const FrtTree& tree) {
  const Vertex n = g.num_vertices();
  const auto apsp = exact_apsp(g);
  FrtTuples out;
  out.levels = tree.num_levels();
  out.ranks.assign(std::size_t{n} * out.levels, no_vertex());
  for (Vertex v = 0; v < n; ++v) {
    for (unsigned l = 0; l < out.levels; ++l) {
      Vertex& best = out.ranks[std::size_t{v} * out.levels + l];
      for (Vertex w = 0; w < n; ++w) {
        if (apsp[std::size_t{v} * n + w] <= tree.scale(l)) {
          best = std::min(best, order.rank_of[w]);
        }
      }
    }
  }
  return out;
}

std::vector<FrtTree::NodeId> ancestor_row(const FrtTree& tree, Vertex v) {
  std::vector<FrtTree::NodeId> row(tree.num_levels());
  row[0] = tree.leaf(v);
  for (std::size_t l = 1; l < row.size(); ++l) {
    row[l] = tree.parent(row[l - 1]);
  }
  EXPECT_EQ(row.back(), 0U) << "vertex " << v << " climbs to no root";
  return row;
}

std::vector<unsigned> node_levels(const FrtTree& tree) {
  const unsigned top = tree.num_levels() - 1;
  std::vector<unsigned> level(tree.num_nodes(), top);
  for (FrtTree::NodeId id = 0; id < tree.num_nodes(); ++id) {
    auto x = id;
    for (; x != 0 && level[id] > 0; x = tree.parent(x)) --level[id];
    EXPECT_EQ(x, 0U) << "node " << id << " climbs to no root";
  }
  return level;
}

BabTreeFlow bab_tree_flow_reference(const FrtTree& tree,
                                    const std::vector<Demand>& demands,
                                    const std::vector<CableType>& cables) {
  std::vector<double> flow(tree.num_nodes(), 0.0);  // over each parent edge
  for (const auto& d : demands) {
    // Leaves all sit at level 0, so the two climbs meet at the LCA.
    FrtTree::NodeId a = tree.leaf(d.s);
    FrtTree::NodeId b = tree.leaf(d.t);
    while (a != b) {
      flow[a] += d.amount;
      flow[b] += d.amount;
      a = tree.parent(a);
      b = tree.parent(b);
    }
  }
  const auto level = node_levels(tree);
  BabTreeFlow out;
  for (auto id = static_cast<FrtTree::NodeId>(tree.num_nodes()); id-- > 1;) {
    if (flow[id] > 1e-12) {
      out.tree_cost += cable_cost_per_unit_length(flow[id], cables) *
                       tree.edge_weight(level[id]);
      ++out.loaded_tree_edges;
    }
  }
  return out;
}

}  // namespace pmte::test
