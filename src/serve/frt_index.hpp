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
//                          from FrtTree::edge_weight(l).  No query reads
//                          it; the check below requires it to agree with
//                          dist_by_lca_level_.
//
// distance() reads one word per endpoint (words_ = 1 for trees of up to 64
// code bits; build_oracle's take 23) and two small table entries: no
// allocation, no pointer chasing.  The index is immutable after build, so
// concurrent queries from any number of threads are safe.
//
// The index serves distances and holds nothing else: no node ids, levels,
// parents, children or leaf maps.  The applications (src/apps/) walk the
// FrtTree they sampled instead.
//
// save_into()/load_from() persist the four arrays inside an ensemble
// artefact through the binary format of serialize.hpp (normative layout:
// docs/FORMAT.md), so save→load→save is byte-identical.  build() and
// load_from() end in the same O(n·L) check, which replays FrtTree::build's
// walk over the codes and rejects codes that do not describe an FRT tree;
// the walk's parents, leaves and child counts are scratch, freed when it
// returns, and only the node count is kept.  An FrtIndex that exists is
// valid, and that check is the library's only structural tree check.  The
// persisted arrays are ArraySections — owned vectors after build() or a
// copying load, zero-copy views into a file mapping after a mapped one
// (the mapping's owner keeps it alive, see FrtEnsemble).  Queries read
// through the view either way, so served doubles are bit-identical between
// the two load paths.

#include <bit>
#include <cstdint>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/types.hpp"

namespace pmte::serve {

class FrtIndex {
 public:
  using NodeId = FrtTree::NodeId;

  FrtIndex() = default;

  /// Pack a built FRT tree's parent links into LCA codes, adopt its
  /// tables, then check them.  One ascending pass over the node ids
  /// numbers each node among its parent's children (it needs only that a
  /// parent's id is below its children's); each vertex then climbs from
  /// its leaf to the root.  O(n·levels).
  [[nodiscard]] static FrtIndex build(const FrtTree& tree);

  [[nodiscard]] Vertex num_leaves() const noexcept {
    return static_cast<Vertex>(codes_.size() / words_);
  }
  /// Node count of the tree the codes describe (counted by the check).
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_; }
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

  /// Level of the lowest common ancestor of the leaves of u and v.
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

  /// dist_T for an LCA at `level` (copied from the source tree).
  [[nodiscard]] Weight distance_at_lca_level(unsigned lvl) const {
    return dist_by_lca_level_[lvl];
  }

  /// Codes read per u ≠ v distance query (u == v costs none).
  /// bench_serve's deterministic lca_probes counters are multiples of it.
  static constexpr std::uint64_t kLcaProbesPerQuery = 2;

  /// Persist / restore through the binary format.  An index exists on
  /// disk only inside an ensemble artefact (FrtEnsemble::save/load), so
  /// both take the reader/writer whose position spans that artefact.
  /// load_from() returns owned arrays or views into the reader's image as
  /// the reader's mode says; for views the caller keeps the image alive
  /// for the index's lifetime (FrtEnsemble holds the MappedFile).  Only
  /// the LCA-level table (64·W + 1 entries) is materialised either way.
  void save_into(BinaryWriter& w) const;
  [[nodiscard]] static FrtIndex load_from(ImageReader& r);

  /// Equality over the persisted state (the rest is a function of it).
  /// Backs the round-trip tests; sections compare by content, so
  /// a mapped index equals its by-copy twin.
  friend bool operator==(const FrtIndex& a, const FrtIndex& b) {
    return a.levels_ == b.levels_ && a.beta_ == b.beta_ &&
           a.widths_ == b.widths_ && a.codes_ == b.codes_ &&
           a.dist_by_lca_level_ == b.dist_by_lca_level_ &&
           a.edge_weight_by_level_ == b.edge_weight_by_level_;
  }

 private:
  /// Check that the persisted arrays describe an FRT tree, derive the
  /// LCA-level table and count the nodes (shared tail of build() and
  /// load_from()).  Throws on violation.
  void check_tree();

  unsigned levels_ = 1;
  double beta_ = 1.0;
  // Persisted arrays: owned after build() or a copying load, mapped views
  // after a mapped one (see ArraySection).
  ArraySection<std::uint32_t> widths_;         // level → child-number bits
  ArraySection<std::uint64_t> codes_;          // v·words_ + w → code word
  ArraySection<Weight> dist_by_lca_level_;     // LCA level → dist_T
  ArraySection<Weight> edge_weight_by_level_;  // level → parent-edge weight
  // Set by check_tree(), never persisted.
  std::size_t words_ = 1;
  std::vector<std::uint32_t> lca_level_at_bit_;  // 64·w + clz → LCA level
  std::size_t nodes_ = 0;
};

}  // namespace pmte::serve
