#include "src/frt/frt_tree.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

double sample_beta(Rng& rng) { return rng.uniform(1.0, 2.0); }

Weight FrtTree::scale(unsigned level) const noexcept {
  return beta_ * std::ldexp(1.0, scale_origin_ + static_cast<int>(level));
}

Weight FrtTree::edge_weight(unsigned level) const noexcept {
  const int shift = rule_ == FrtWeightRule::dominating ? 1 : 0;
  return beta_ *
         std::ldexp(1.0, scale_origin_ + static_cast<int>(level) + shift);
}

FrtTree FrtTree::build(const std::vector<DistanceMap>& le_lists,
                       const VertexOrder& order, double beta,
                       Weight dist_min_hint, FrtWeightRule rule) {
  const Vertex n = order.n();
  PMTE_CHECK(le_lists.size() == n, "LE list count mismatch");
  PMTE_CHECK(beta >= 1.0 && beta < 2.0, "beta must lie in [1,2)");
  PMTE_CHECK(dist_min_hint > 0.0 && is_finite(dist_min_hint),
             "dist_min_hint must be positive");
  PMTE_CHECK(n >= 1, "empty vertex set");

  FrtTree t;
  t.beta_ = beta;
  t.rule_ = rule;
  t.order_of_rank_ = order.vertex_of;

  // Scale range (Section 7.1, step (4)): bottom below the minimum pairwise
  // distance (leaves become singletons), top covering the largest LE-list
  // distance (a common root).  With β < 2, β·2^{i0} < 2^{i0+1} ≤ dmin.
  Weight dmax = dist_min_hint;
  for (Vertex v = 0; v < n; ++v) {
    PMTE_CHECK(!le_lists[v].empty(), "LE list of a vertex is empty");
    PMTE_CHECK(le_lists[v].is_least_element_list(),
               "input is not a valid LE list");
    // Sorted by ascending key = descending distance: front() is farthest.
    dmax = std::max(dmax, le_lists[v][0].dist);
  }
  t.scale_origin_ = static_cast<int>(std::floor(std::log2(dist_min_hint))) - 1;
  int i_top = t.scale_origin_;
  while (beta * std::ldexp(1.0, i_top) < dmax) ++i_top;
  t.levels_ = static_cast<unsigned>(i_top - t.scale_origin_) + 1;

  // Cache dist_T by LCA level: leaves all sit at level 0 and edge weights
  // are uniform per level, so dist_T(u,v) = Σ_{l<lca} 2·edge_weight(l).
  // The ascending accumulation order is load-bearing: distance() and the
  // flat serving index replay these exact doubles.
  t.dist_by_lca_level_.assign(t.levels_, 0.0);
  for (unsigned l = 1; l < t.levels_; ++l) {
    const Weight step = 2.0 * t.edge_weight(l - 1);
    t.dist_by_lca_level_[l] = t.dist_by_lca_level_[l - 1] + step;
  }

  // Leaf tuples: tuple[ℓ] = rank of min-order vertex within β·2^{i0+ℓ}.
  const unsigned levels = t.levels_;
  t.tuples_.assign(static_cast<std::size_t>(n) * levels, 0);
  parallel_for(n, [&](std::size_t vi) {
    const auto& list = le_lists[vi];
    // Ascending-distance order = reversed key order (staircase).
    const auto entries = list.entries();
    const std::size_t len = entries.size();
    // entries[len-1] is (rank(v), 0); entries[0] the farthest/min rank.
    std::size_t idx = len;  // points one past the current candidate
    Vertex* tuple = t.tuples_.data() + vi * levels;
    for (unsigned l = 0; l < levels; ++l) {
      const Weight radius =
          beta * std::ldexp(1.0, t.scale_origin_ + static_cast<int>(l));
      // Move to the farthest entry within `radius`; entries are scanned in
      // ascending distance as idx decreases.
      while (idx > 1 && entries[idx - 2].dist <= radius) --idx;
      tuple[l] = entries[idx - 1].key;
    }
  });

  // Materialise the tree top-down: nodes are identified by suffixes; a
  // child is keyed by (parent, leading rank at its level).
  t.root_ = 0;
  t.nodes_.push_back(Node{});
  t.nodes_[0].level = levels - 1;
  t.nodes_[0].leading =
      order.vertex_of[t.tuples_[(levels - 1)]];  // same for all leaves
  struct KeyHash {
    std::size_t operator()(const std::pair<NodeId, Vertex>& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.first) << 32) ^ k.second);
    }
  };
  // pmte-lint: ordered-ok(find/emplace only, never iterated — nodes are numbered by the deterministic v = 0..n-1 leaf walk)
  std::unordered_map<std::pair<NodeId, Vertex>, NodeId, KeyHash> child_index;
  t.leaf_of_.assign(n, invalid_node);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex* tuple = t.tuples_.data() + static_cast<std::size_t>(v) * levels;
    PMTE_CHECK(tuple[levels - 1] == t.tuples_[levels - 1],
               "root tuple mismatch — is the graph connected?");
    NodeId cur = t.root_;
    for (int l = static_cast<int>(levels) - 2; l >= 0; --l) {
      const auto key = std::make_pair(cur, tuple[l]);
      auto it = child_index.find(key);
      if (it == child_index.end()) {
        const NodeId id = static_cast<NodeId>(t.nodes_.size());
        Node nd;
        nd.level = static_cast<unsigned>(l);
        nd.leading = order.vertex_of[tuple[l]];
        nd.parent = cur;
        nd.parent_edge = t.edge_weight(static_cast<unsigned>(l));
        t.nodes_.push_back(nd);
        it = child_index.emplace(key, id).first;
      }
      cur = it->second;
    }
    if (levels == 1) {
      // Degenerate single-level tree: the root is the unique leaf.
      PMTE_CHECK(n == 1, "single-level FRT tree requires n == 1");
    }
    t.nodes_[cur].leaf_vertex = v;
    t.leaf_of_[v] = cur;
  }
  // Representative leaves (Section 7.5 needs a common descendant per
  // node).  Ids descending visit children before parents, so each node's
  // representative is final when it is handed up.
  for (NodeId id = static_cast<NodeId>(t.nodes_.size()); id-- > 0;) {
    Node& nd = t.nodes_[id];
    if (nd.leaf_vertex != no_vertex()) nd.representative_leaf = id;
    if (nd.parent != invalid_node &&
        t.nodes_[nd.parent].representative_leaf == invalid_node) {
      t.nodes_[nd.parent].representative_leaf = nd.representative_leaf;
    }
  }
  return t;
}

Weight FrtTree::distance(Vertex u, Vertex v) const {
  PMTE_CHECK(u < leaf_of_.size() && v < leaf_of_.size(),
             "distance: vertex out of range");
  if (u == v) return 0.0;
  const Vertex* tu = tuples_.data() + static_cast<std::size_t>(u) * levels_;
  const Vertex* tv = tuples_.data() + static_cast<std::size_t>(v) * levels_;
  // Divergence level: the lowest ℓ with equal suffixes from ℓ upwards.
  unsigned diverge = 0;
  for (unsigned l = levels_; l-- > 0;) {
    if (tu[l] != tv[l]) {
      diverge = l + 1;
      break;
    }
  }
  return dist_by_lca_level_[diverge];
}

Weight FrtTree::total_edge_weight() const {
  Weight total = 0.0;
  for (const auto& nd : nodes_) {
    if (nd.parent != invalid_node) total += nd.parent_edge;
  }
  return total;
}

void FrtTree::validate() const {
  PMTE_CHECK(!nodes_.empty(), "empty tree");
  PMTE_CHECK(nodes_[root_].parent == invalid_node, "root has a parent");
  std::size_t leaves_seen = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (id != root_) {
      PMTE_CHECK(nd.parent < id, "parent id must be below child id");
      PMTE_CHECK(nodes_[nd.parent].level == nd.level + 1,
                 "level must increase by 1");
      PMTE_CHECK(nd.parent_edge > 0.0, "non-positive edge weight");
    }
    if (nd.leaf_vertex != no_vertex()) {
      PMTE_CHECK(nd.level == 0, "leaf vertices only at level 0");
      PMTE_CHECK(leaf_of_[nd.leaf_vertex] == id, "leaf bijection broken");
      ++leaves_seen;
    }
    PMTE_CHECK(nd.representative_leaf < nodes_.size(),
               "missing representative leaf");
    PMTE_CHECK(
        nodes_[nd.representative_leaf].leaf_vertex != no_vertex(),
        "representative is not a leaf");
  }
  PMTE_CHECK(leaves_seen == leaf_of_.size(), "leaf count mismatch");
}

}  // namespace pmte
