#pragma once
// Flat, read-only serving index over one FRT tree.
//
// An FRT tree is not a general tree (Section 7.1): every leaf sits at
// level 0, the leaf of v is the tuple (v_{i0}, …, v_{itop}) and its
// ancestors are the tuple's suffixes.  Edge weights are uniform per level,
// so the tree metric depends only on the level of the LCA, and one packed
// code per vertex determines that level.  FrtIndex persists the codes plus
// three per-level tables:
//
//   codes_                 v's LCA code.  Each node below the root gets a
//                          child number, its rank among its parent's
//                          children in ascending id order (the order in
//                          which FrtTree::build first meets them).  The
//                          code concatenates the child numbers of v's
//                          ancestors root-first, level l in widths_[l]
//                          bits, into words_ = max(1, ⌈Σ widths / 64⌉) u64
//                          words: word 0 is the most significant, level 0
//                          fills the lowest bits of the last word, and the
//                          bits above Σ widths are zero.  Two codes agree
//                          on every field above their leaves' LCA and
//                          differ in the field just below it, so the LCA
//                          level of u ≠ v is a lookup at the highest set
//                          bit of the first non-zero word of
//                          code(u) XOR code(v).
//   widths_                widths_[l] = bit_width(most children of any
//                          level-(l+1) node − 1); the root's width is 0.
//   dist_by_lca_level_     dist_T for an LCA at each level.  Copied
//                          verbatim from FrtTree::distance_by_lca_level(),
//                          which makes distance() bit-identical to
//                          FrtTree::distance — no re-derived floating-point
//                          sums.
//   edge_weight_by_level_  per-level parent-edge weight, copied verbatim
//                          from FrtTree::edge_weight(l); the apps' flat
//                          tree walks (buy-at-bulk flow pricing) read it.
//
// distance() reads one word per endpoint (words_ = 1 for trees of up to 64
// code bits; build_oracle's take 23) and two small table entries: no
// allocation, no pointer chasing.  The index is immutable after build, so
// concurrent queries from any number of threads are safe.
//
// Beyond point queries the index exposes the flat tree *structure* the
// applications (src/apps/) walk:
// level(id), children(id) (CSR adjacency in ascending id order),
// leaf_vertex(id), leaf_node(v), lca(u, v) and root().  Node ids are the
// source tree's numbering: the root is 0, then nodes in the order the
// v = 0, 1, … top-down walk first meets them, so every parent id is
// smaller than its children's and iterating ids descending is a valid
// bottom-up (children-first) order.
//
// save_into()/load_from() persist the four arrays inside an ensemble
// artefact through the binary format of serialize.hpp (normative layout:
// docs/FORMAT.md), so save→load→save is byte-identical.  build() and
// load_from() end in the same O(n·L) pass, which rejects codes that do not
// describe an FRT tree and derives the node ids, levels, parents, children
// CSR and leaf map; an FrtIndex that exists is valid, and that pass is the
// library's only structural tree check.  The persisted arrays are
// ArraySections — owned vectors after build() or a copying load,
// zero-copy views into a file mapping after a mapped one (the mapping's
// owner keeps it alive, see FrtEnsemble).  Queries read through the view
// either way, so served doubles are bit-identical between the two load
// paths.

#include <bit>
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

  /// Encode a built FRT tree's rows as LCA codes, adopt its tables, then
  /// check and derive the structure.  O(n·levels).
  [[nodiscard]] static FrtIndex build(const FrtTree& tree);

  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(codes_.size() / words_);
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return node_level_.size();
  }
  [[nodiscard]] unsigned num_levels() const noexcept { return levels_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] bool empty() const noexcept { return codes_.empty(); }
  /// Whether the persisted arrays view a file mapping (zero-copy load).
  [[nodiscard]] bool is_mapped() const noexcept { return codes_.is_mapped(); }
  /// u64 words per LCA code.
  [[nodiscard]] std::size_t code_words() const noexcept { return words_; }

  /// Tree distance between the leaves of u and v — two codes read
  /// (kLcaProbesPerQuery), no per-query allocation.  Bit-identical to
  /// FrtTree::distance of the source tree.
  [[nodiscard]] Weight distance(Vertex u, Vertex v) const;

  /// Lowest common ancestor of the leaves of u and v (node id of the
  /// source tree's numbering) and its level.
  [[nodiscard]] NodeId lca(Vertex u, Vertex v) const;
  [[nodiscard]] unsigned lca_level(Vertex u, Vertex v) const;

  /// The LCA level of the leaves of u and v from their codes (0 for
  /// u == v).  Unchecked — the public queries validate u and v;
  /// FrtEnsemble::query_batch validates its pairs up front.
  [[nodiscard]] unsigned code_lca_level(Vertex u, Vertex v) const noexcept {
    const std::uint64_t* a = codes_.data() + std::size_t{u} * words_;
    const std::uint64_t* b = codes_.data() + std::size_t{v} * words_;
    std::size_t w = 0;
    std::uint64_t x = a[0] ^ b[0];
    while (x == 0 && w + 1 < words_) {
      ++w;
      x = a[w] ^ b[w];
    }
    // countl_zero(0) = 64 reaches the last entry, LCA level 0.
    return lca_level_at_bit_[64 * w + static_cast<unsigned>(std::countl_zero(x))];
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

  // --- Flat structure, derived from the codes ----------------------------

  /// Root node id.
  [[nodiscard]] NodeId root() const noexcept { return 0; }

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
  [[nodiscard]] NodeId leaf_node(Vertex v) const { return leaf_node_[v]; }

  /// Codes read per u ≠ v distance query (u == v costs none).
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
    return a.levels_ == b.levels_ && a.beta_ == b.beta_ &&
           a.widths_ == b.widths_ && a.codes_ == b.codes_ &&
           a.dist_by_lca_level_ == b.dist_by_lca_level_ &&
           a.edge_weight_by_level_ == b.edge_weight_by_level_;
  }

 private:
  /// Check that the persisted arrays describe an FRT tree and derive the
  /// structure maps (shared tail of build() and load_from()).  Throws on
  /// violation.
  void derive_structure();

  unsigned levels_ = 1;
  double beta_ = 1.0;
  // Persisted arrays: owned after build() or a copying load, mapped views
  // after a mapped one (see ArraySection).
  ArraySection<std::uint32_t> widths_;         // level → child-number bits
  ArraySection<std::uint64_t> codes_;          // v·words_ + w → code word
  ArraySection<Weight> dist_by_lca_level_;     // LCA level → dist_T
  ArraySection<Weight> edge_weight_by_level_;  // level → parent-edge weight
  // Derived by derive_structure(), never persisted.
  std::size_t words_ = 1;
  std::vector<std::uint32_t> lca_level_at_bit_;  // 64·w + clz → LCA level
  std::vector<std::uint32_t> node_level_;    // node → level
  std::vector<NodeId> parent_;               // node → parent (root: 0)
  std::vector<std::uint32_t> child_offset_;  // node → first child slot
  std::vector<NodeId> child_list_;           // concatenated children
  std::vector<Vertex> node_leaf_vertex_;     // node → vertex (leaves)
  std::vector<NodeId> leaf_node_;            // vertex → leaf node
};

}  // namespace pmte::serve
