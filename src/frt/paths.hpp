#pragma once
// Mapping tree edges back to graph paths (Section 7.5).
//
// A tree edge e between the level-i node (v_i,…,v_k) and its parent
// (v_{i+1},…,v_k) is realised by walking from a common descendant leaf v₀
// to both leading vertices: dist(v₀,v_i) ≤ β2^i and dist(v₀,v_{i+1}) ≤
// β2^{i+1}, so the concatenated path weighs at most 3·β2^i ≤ 3·ω_T(e)
// (with the dominating weight rule even ≤ 1.5·ω_T(e)).
//
// The paper traces these walks through H and unfolds H-edges via the
// oracle's lookup tables; since dist_G ≤ dist_H, tracing shortest paths
// directly in G preserves the same guarantee with simpler bookkeeping —
// we do that, caching one Dijkstra per representative leaf.
//
// The common descendant of a node is its representative leaf: descend into
// the child with the largest id until a leaf is reached.  (This is not the
// largest vertex of the subtree; the buy-at-bulk cost and its Dijkstra
// count depend on the exact rule.)  Parents and representatives are read
// off the tree's ancestor rows once, at construction.

#include <unordered_map>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/shortest_paths.hpp"

namespace pmte {

/// A tree edge realised in G.
struct UnfoldedEdge {
  std::vector<Vertex> path;  ///< vertex sequence in G (child-leading vertex
                             ///< … leaf … parent-leading vertex)
  Weight weight = 0.0;       ///< ω_G of the path
};

/// Unfolds tree edges into G paths on demand; memoises shortest-path trees
/// per representative leaf.
class PathUnfolder {
 public:
  PathUnfolder(const Graph& g, const FrtTree& tree);

  /// Realise the parent edge of `child` in G.
  [[nodiscard]] UnfoldedEdge unfold(FrtTree::NodeId child);

  /// The representative leaf's graph vertex of node `id`.
  [[nodiscard]] Vertex representative(FrtTree::NodeId id) const {
    return representative_[id];
  }

  /// Total number of Dijkstra runs performed (cost accounting).
  [[nodiscard]] std::size_t dijkstra_runs() const noexcept {
    return cache_.size();
  }

 private:
  const SsspResult& sssp_from(Vertex source);

  const Graph& g_;
  const FrtTree& tree_;
  std::vector<FrtTree::NodeId> parent_;  // node → parent (root: itself)
  std::vector<Vertex> representative_;   // node → representative leaf
  // pmte-lint: ordered-ok(memo cache: find/emplace by leaf vertex only, never iterated — unfold order is the caller's)
  std::unordered_map<Vertex, SsspResult> cache_;
};

}  // namespace pmte
