#pragma once
// Flat, read-only serving index over one FRT tree.
//
// An FRT tree is not a general tree (Section 7.1): the leaf of v is the
// tuple (v_{i0}, …, v_{itop}) and its ancestors are the tuple's suffixes.
// So n rows of L ancestor ids describe the whole tree; FrtTree::build
// writes exactly those rows, and FrtIndex adopts and persists them plus two
// per-level tables:
//
//   anc_                   anc[v·L + l] = node id of v's level-l ancestor
//                          (entry 0 is v's leaf, entry L−1 the root).  Two
//                          rows agree from their LCA upwards and differ
//                          below it, so the LCA level of u, v is the number
//                          of levels at which their rows differ, and the
//                          LCA itself is anc[u·L + lca_level].
//   dist_by_lca_level_     dist_T for an LCA at each level: all leaves sit
//                          at level 0 and edge weights are uniform per
//                          level, so the tree metric depends only on the
//                          LCA level.  Copied verbatim from
//                          FrtTree::distance_by_lca_level(), which makes
//                          distance() bit-identical to FrtTree::distance —
//                          no re-derived floating-point sums.
//   edge_weight_by_level_  per-level parent-edge weight, copied verbatim
//                          from FrtTree::edge_weight(l); the apps' flat
//                          tree walks (buy-at-bulk flow pricing) read it.
//
// distance() reads two rows of L words and one table entry: no allocation,
// no pointer chasing.  The index is immutable after build, so concurrent
// queries from any number of threads are safe.
//
// Beyond point queries the index exposes the flat tree *structure* the
// applications (src/apps/) walk:
// level(id), children(id) (CSR adjacency in ascending id order),
// leaf_vertex(id), leaf_node(v), and root().  Node ids are the source
// tree's numbering and every parent id is smaller than its children's, so
// iterating ids descending is a valid bottom-up (children-first) order.
//
// save_into()/load_from() persist the three arrays inside an ensemble
// artefact through the binary format of serialize.hpp (normative layout:
// docs/FORMAT.md), so save→load→save is byte-identical.  build() and
// load_from() end in the same O(n·L) pass, which rejects rows that do not
// form an FRT tree and derives the node levels, the children CSR and the
// leaf map; an FrtIndex that exists is valid, and that pass is the
// library's only structural tree check.  The persisted arrays are
// ArraySections — owned vectors after build() or a copying load,
// zero-copy views into a file mapping after a mapped one (the mapping's
// owner keeps it alive, see FrtEnsemble).  Queries read through the view
// either way, so served doubles are bit-identical between the two load
// paths.

#include <cstdint>
#include <span>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/types.hpp"

namespace pmte::serve {

class FrtIndex {
 public:
  using NodeId = FrtTree::NodeId;

  FrtIndex() = default;

  /// Adopt a built FRT tree's ancestor rows and tables, then check and
  /// derive the structure (throws if the rows are not an FRT tree).
  /// O(n·levels).
  [[nodiscard]] static FrtIndex build(const FrtTree& tree);

  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(anc_.size() / levels_);
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return node_level_.size();
  }
  [[nodiscard]] unsigned num_levels() const noexcept { return levels_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] bool empty() const noexcept { return anc_.empty(); }
  /// Whether the persisted arrays view a file mapping (zero-copy load).
  [[nodiscard]] bool is_mapped() const noexcept { return anc_.is_mapped(); }

  /// Tree distance between the leaves of u and v — two ancestor rows read
  /// (kLcaProbesPerQuery), no per-query allocation.  Bit-identical to
  /// FrtTree::distance of the source tree.
  [[nodiscard]] Weight distance(Vertex u, Vertex v) const;

  /// Lowest common ancestor of the leaves of u and v (node id of the
  /// source tree's numbering) and its level.
  [[nodiscard]] NodeId lca(Vertex u, Vertex v) const;
  [[nodiscard]] unsigned lca_level(Vertex u, Vertex v) const;

  /// v's ancestor row: num_levels() node ids, leaf first, root last.
  /// Unchecked — the public queries validate v; FrtEnsemble::query_batch
  /// validates its pairs up front.
  [[nodiscard]] const NodeId* row(Vertex v) const noexcept {
    return anc_.data() + std::size_t{v} * levels_;
  }
  /// Number of levels at which two of this index's rows differ — the LCA
  /// level of their leaves, since rows agree from the LCA upwards.
  [[nodiscard]] unsigned differing_levels(const NodeId* a,
                                          const NodeId* b) const noexcept {
    unsigned differ = 0;
    for (unsigned l = 0; l < levels_; ++l) differ += a[l] != b[l] ? 1U : 0U;
    return differ;
  }

  [[nodiscard]] unsigned level(NodeId id) const { return node_level_[id]; }

  /// dist_T for an LCA at `level` (copied from the source tree).
  [[nodiscard]] Weight distance_at_lca_level(unsigned lvl) const {
    return dist_by_lca_level_[lvl];
  }
  /// The full LCA-level distance table (levels_ entries, strictly
  /// increasing; entry 0 is 0.0).
  [[nodiscard]] std::span<const Weight> distance_by_lca_level()
      const noexcept {
    return dist_by_lca_level_;
  }

  /// Weight of the edge from a level-`lvl` node to its parent, copied
  /// verbatim from FrtTree::edge_weight(lvl).  The root level has no
  /// parent edge; reading it returns the tree's value anyway (uniform-rule
  /// extrapolation) — callers skip the root explicitly.
  [[nodiscard]] Weight edge_weight(unsigned lvl) const {
    return edge_weight_by_level_[lvl];
  }

  // --- Flat structure, derived from the rows -----------------------------

  /// Root node id (the last entry of every row).
  [[nodiscard]] NodeId root() const { return anc_[levels_ - 1]; }

  /// Children of `id` in ascending id order — a CSR view, no per-node
  /// heap vectors.
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    return {child_list_.data() + child_offset_[id],
            child_offset_[id + 1] - child_offset_[id]};
  }

  /// Original graph vertex of a leaf node (no_vertex() for inner nodes).
  [[nodiscard]] Vertex leaf_vertex(NodeId id) const {
    return node_leaf_vertex_[id];
  }

  /// Leaf node id of a graph vertex (inverse of leaf_vertex on leaves).
  [[nodiscard]] NodeId leaf_node(Vertex v) const { return row(v)[0]; }

  /// Ancestor rows read per u ≠ v distance query (u == v costs none).
  /// bench_serve's deterministic lca_probes counters are multiples of it.
  static constexpr std::uint64_t kLcaProbesPerQuery = 2;

  /// Persist / restore through the binary format.  An index exists on
  /// disk only inside an ensemble artefact (FrtEnsemble::save/load), so
  /// both take the reader/writer whose position spans that artefact.
  /// load_from() returns owned arrays or views into the reader's image as
  /// the reader's mode says; for views the caller keeps the image alive
  /// for the index's lifetime (FrtEnsemble holds the MappedFile).  Only
  /// the O(n·L) structure maps are materialised either way.
  void save_into(BinaryWriter& w) const;
  [[nodiscard]] static FrtIndex load_from(ImageReader& r);

  /// Equality over the persisted state (the structure maps are a function
  /// of it).  Backs the round-trip tests; sections compare by content, so
  /// a mapped index equals its by-copy twin.
  friend bool operator==(const FrtIndex& a, const FrtIndex& b) {
    return a.levels_ == b.levels_ && a.beta_ == b.beta_ && a.anc_ == b.anc_ &&
           a.dist_by_lca_level_ == b.dist_by_lca_level_ &&
           a.edge_weight_by_level_ == b.edge_weight_by_level_;
  }

 private:
  /// Check that the persisted arrays form an FRT tree and derive the
  /// structure maps (shared tail of build() and load_from()).  Throws on
  /// violation.
  void derive_structure();

  unsigned levels_ = 1;
  double beta_ = 1.0;
  // Persisted arrays: owned after build() or a copying load, mapped views
  // after a mapped one (see ArraySection).
  ArraySection<NodeId> anc_;                   // v·L + l → ancestor id
  ArraySection<Weight> dist_by_lca_level_;     // LCA level → dist_T
  ArraySection<Weight> edge_weight_by_level_;  // level → parent-edge weight
  // Derived from the rows by derive_structure(), never persisted.
  std::vector<std::uint32_t> node_level_;  // node → level
  std::vector<std::uint32_t> child_offset_;  // node → first child slot
  std::vector<NodeId> child_list_;           // concatenated children
  std::vector<Vertex> node_leaf_vertex_;     // node → vertex (leaves)
};

}  // namespace pmte::serve
