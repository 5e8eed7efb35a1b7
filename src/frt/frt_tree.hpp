#pragma once
// FRT tree construction from LE lists (Section 7.1, steps (1)–(4), and
// Lemma 7.2).
//
// Fixing β ∈ [1,2) and the random order, the leaf of v is the tuple
// (v_{i0}, …, v_{itop}) with v_i = min{w | dist(v,w) ≤ β·2^i} (minimum
// w.r.t. the random order); ancestors are the suffixes.  The bottom scale
// i0 is chosen below the minimum pairwise distance, so leaves are
// singletons; the top scale covers the largest LE-list distance, so the
// root is shared.
//
// Edge-weight conventions: the paper weights the edge between levels i and
// i+1 by β·2^i ("khan"); we default to β·2^{i+1} ("dominating"), which
// guarantees dist_T ≥ dist_G deterministically and keeps the expected
// stretch O(log n) (only the constant changes).
//
// The tree is stored as what Lemma 7.2 makes it: each node's parent (the
// next-shorter suffix) and level, each vertex's leaf and each node's
// leading vertex.  Nodes are numbered top-down as the build first meets
// them walking v = 0, 1, …, so the root is 0 and every parent id is
// smaller than its children's: iterating ids descending is a bottom-up
// (children-first) order.  The applications walk these links directly —
// k-median condenses them into its DP tree, buy-at-bulk folds flows up
// them and path unfolding (paths.hpp) realises their edges in G —
// while serve::FrtIndex packs them into one LCA code per vertex (each
// ancestor's rank among its parent's children) for serving.

#include <cstdint>
#include <vector>

#include "src/algebra/distance_map.hpp"
#include "src/frt/le_lists.hpp"
#include "src/util/types.hpp"

namespace pmte {

enum class FrtWeightRule { dominating, khan };

class FrtTree {
 public:
  using NodeId = std::uint32_t;

  /// Build the FRT tree for the given LE lists (keys = ranks).
  /// `dist_min_hint` must lower-bound the minimum positive pairwise
  /// distance of the embedded metric (e.g. the minimum edge weight).
  /// Throws when two vertices would share a leaf: the hint is above their
  /// distance, or they sit at distance 0 in a pseudometric.
  static FrtTree build(const std::vector<DistanceMap>& le_lists,
                       const VertexOrder& order, double beta,
                       Weight dist_min_hint,
                       FrtWeightRule rule = FrtWeightRule::dominating);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return parent_.size();
  }
  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(leaf_.size());
  }

  /// Number of tuple positions = tree height + 1.
  [[nodiscard]] unsigned num_levels() const noexcept { return levels_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }

  /// Parent of a node, one level up; the root, 0, is its own parent.
  [[nodiscard]] NodeId parent(NodeId id) const { return parent_[id]; }
  /// Level of a node: 0 for leaves, num_levels() − 1 for the root.
  [[nodiscard]] unsigned level(NodeId id) const { return level_[id]; }
  /// Leaf node of a graph vertex (level 0).
  [[nodiscard]] NodeId leaf(Vertex v) const { return leaf_[v]; }
  /// Leading graph vertex of a node's tuple suffix.
  [[nodiscard]] Vertex leading(NodeId id) const { return leading_[id]; }

  /// β·2^{i0+level} — the ball radius of clusters at `level`.
  [[nodiscard]] Weight scale(unsigned level) const noexcept;

  /// Weight of the edge from a level-`level` node to its parent.
  [[nodiscard]] Weight edge_weight(unsigned level) const noexcept;

  /// Lowest common ancestor of the leaves of u and v: both leaves climb
  /// their parents in lockstep until they meet, which takes as many steps
  /// as the LCA level — Θ(log n).
  [[nodiscard]] NodeId lca(Vertex u, Vertex v) const;

  /// Tree distance between the leaves of u and v: the cached weight sum
  /// at the LCA's level, distance_at_lca_level(level(lca(u, v))).
  [[nodiscard]] Weight distance(Vertex u, Vertex v) const;

  /// dist_T(u,v) for leaves whose lowest common ancestor sits at `level`:
  /// Σ_{l<level} 2·edge_weight(l), accumulated bottom-up once at build time
  /// (all leaves live at level 0, so the tree metric depends only on the
  /// LCA level).  serve::FrtIndex copies this table verbatim, which keeps
  /// flat-index queries bit-identical to FrtTree::distance.
  [[nodiscard]] Weight distance_at_lca_level(unsigned level) const {
    return dist_by_lca_level_[level];
  }
  [[nodiscard]] const std::vector<Weight>& distance_by_lca_level()
      const noexcept {
    return dist_by_lca_level_;
  }

 private:
  std::vector<NodeId> parent_;   // node → parent (root 0: itself)
  std::vector<unsigned> level_;  // node → level (leaves 0)
  std::vector<NodeId> leaf_;     // vertex → leaf node
  std::vector<Vertex> leading_;  // node → leading vertex
  std::vector<Weight> dist_by_lca_level_;  // level → Σ_{l<level} 2·w_l
  unsigned levels_ = 1;
  int scale_origin_ = 0;  // i0
  double beta_ = 1.0;
  FrtWeightRule rule_ = FrtWeightRule::dominating;
};

/// Sample β ∈ [1, 2) as in Section 7.1, step (1).
[[nodiscard]] double sample_beta(Rng& rng);

}  // namespace pmte
