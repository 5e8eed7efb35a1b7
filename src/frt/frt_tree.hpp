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
// Nodes are numbered top-down as the build creates them, so every parent
// id is smaller than its children's and iterating ids descending visits
// children before parents.  Nodes record only their parent; consumers that
// walk the tree top-down read serve::FrtIndex's children CSR instead.

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
  static constexpr NodeId invalid_node = static_cast<NodeId>(-1);

  struct Node {
    Vertex leading = no_vertex();  ///< leading graph vertex of the tuple
    unsigned level = 0;            ///< 0 = leaf layer
    NodeId parent = invalid_node;
    Weight parent_edge = 0.0;      ///< weight of the edge to the parent
    Vertex leaf_vertex = no_vertex();    ///< original vertex (leaves only)
    NodeId representative_leaf = invalid_node;
  };

  /// Build the FRT tree for the given LE lists (keys = ranks).
  /// `dist_min_hint` must lower-bound the minimum positive pairwise
  /// distance of the embedded metric (e.g. the minimum edge weight).
  static FrtTree build(const std::vector<DistanceMap>& le_lists,
                       const VertexOrder& order, double beta,
                       Weight dist_min_hint,
                       FrtWeightRule rule = FrtWeightRule::dominating);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] NodeId leaf_of(Vertex v) const { return leaf_of_[v]; }
  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(leaf_of_.size());
  }

  /// Number of tuple positions = tree height + 1.
  [[nodiscard]] unsigned num_levels() const noexcept { return levels_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }

  /// β·2^{i0+level} — the ball radius of clusters at `level`.
  [[nodiscard]] Weight scale(unsigned level) const noexcept;

  /// Weight of the edge from a level-`level` node to its parent.
  [[nodiscard]] Weight edge_weight(unsigned level) const noexcept;

  /// Tree distance between the leaves of u and v.  The divergence level is
  /// found by one suffix scan over the two tuples; the weight sum is a
  /// cached lookup (see distance_at_lca_level), so the per-query cost is
  /// the scan alone — Θ(log n) worst case, no recomputed root paths.
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

  /// Sum of all parent-edge weights (used by cost sanity checks).
  [[nodiscard]] Weight total_edge_weight() const;

  /// Structural validation: parent ids below child ids, level
  /// monotonicity, leaf bijection, representative leaves.  Throws on error.
  void validate() const;

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> leaf_of_;       // vertex → leaf node
  std::vector<Vertex> tuples_;        // n × levels_, leading *ranks*
  std::vector<Weight> dist_by_lca_level_;  // level → Σ_{l<level} 2·w_l
  std::vector<Vertex> order_of_rank_; // rank → vertex
  NodeId root_ = invalid_node;
  unsigned levels_ = 1;
  int scale_origin_ = 0;  // i0
  double beta_ = 1.0;
  FrtWeightRule rule_ = FrtWeightRule::dominating;
};

/// Sample β ∈ [1, 2) as in Section 7.1, step (1).
[[nodiscard]] double sample_beta(Rng& rng);

}  // namespace pmte
