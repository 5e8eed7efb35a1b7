#include "src/frt/frt_tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/obs/obs.hpp"
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
  PMTE_OBS_SPAN("frt.tree_build", static_cast<std::int64_t>(n), "vertices");

  FrtTree t;
  t.beta_ = beta;
  t.rule_ = rule;

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
  std::vector<Vertex> tuples(static_cast<std::size_t>(n) * levels, 0);
  parallel_for(n, [&](std::size_t vi) {
    const auto& list = le_lists[vi];
    // Ascending-distance order = reversed key order (staircase).
    const auto entries = list.entries();
    const std::size_t len = entries.size();
    // entries[len-1] is (rank(v), 0); entries[0] the farthest/min rank.
    std::size_t idx = len;  // points one past the current candidate
    Vertex* tuple = tuples.data() + vi * levels;
    for (unsigned l = 0; l < levels; ++l) {
      const Weight radius =
          beta * std::ldexp(1.0, t.scale_origin_ + static_cast<int>(l));
      // Move to the farthest entry within `radius`; entries are scanned in
      // ascending distance as idx decreases.
      while (idx > 1 && entries[idx - 2].dist <= radius) --idx;
      tuple[l] = entries[idx - 1].key;
    }
  });

  // Number the suffixes top-down: the root is 0, and a child is keyed by
  // (parent, leading rank at its level) and numbered when first met.
  t.leading_.push_back(order.vertex_of[tuples[levels - 1]]);
  t.parent_.push_back(0);
  t.level_.push_back(levels - 1);
  struct KeyHash {
    std::size_t operator()(const std::pair<NodeId, Vertex>& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.first) << 32) ^ k.second);
    }
  };
  // pmte-lint: ordered-ok(find/emplace only, never iterated — nodes are numbered by the deterministic v = 0..n-1 leaf walk)
  std::unordered_map<std::pair<NodeId, Vertex>, NodeId, KeyHash> child_index;
  t.leaf_.assign(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex* tuple = tuples.data() + std::size_t{v} * levels;
    PMTE_CHECK(tuple[levels - 1] == tuples[levels - 1],
               "root tuple mismatch — is the graph connected?");
    const std::size_t known = t.parent_.size();
    NodeId cur = 0;
    for (unsigned l = levels - 1; l-- > 0;) {
      const auto next = static_cast<NodeId>(t.parent_.size());
      const auto [it, fresh] =
          child_index.try_emplace(std::make_pair(cur, tuple[l]), next);
      if (fresh) {
        t.leading_.push_back(order.vertex_of[tuple[l]]);
        t.parent_.push_back(cur);
        t.level_.push_back(l);
      }
      cur = it->second;
    }
    // A new node's children are all new, so a vertex that meets no new
    // node lands on an earlier vertex's leaf.
    if (v != 0 && t.parent_.size() == known) {
      const auto u = std::find(t.leaf_.begin(), t.leaf_.begin() + v, cur) -
                     t.leaf_.begin();
      std::ostringstream msg;
      msg << "FrtTree: vertices " << u << " and " << v
          << " share a leaf — dist_min_hint " << dist_min_hint
          << " is above their distance";
      PMTE_CHECK(false, msg.str());
    }
    t.leaf_[v] = cur;
  }
  return t;
}

FrtTree::NodeId FrtTree::lca(Vertex u, Vertex v) const {
  PMTE_CHECK(u < num_leaves() && v < num_leaves(),
             "FrtTree: vertex out of range");
  // Leaves all sit at level 0, so the two climbs meet at the LCA.
  NodeId a = leaf_[u];
  NodeId b = leaf_[v];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return a;
}

Weight FrtTree::distance(Vertex u, Vertex v) const {
  return dist_by_lca_level_[level_[lca(u, v)]];
}

}  // namespace pmte
