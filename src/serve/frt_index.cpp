#include "src/serve/frt_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/assertions.hpp"

namespace pmte::serve {

namespace {

/// Child numbers are below n < 2^31 (node ids are u32 and n·L < 2^31), so
/// no level needs more than 31 bits.
constexpr std::uint32_t kMaxWidth = 31;

/// Bits [off, off + width) of a `words`-word code, counted from the least
/// significant bit of its last word (width ≤ kMaxWidth).
[[nodiscard]] std::uint32_t field(const std::uint64_t* code,
                                  std::size_t words, std::uint64_t off,
                                  std::uint32_t width) noexcept {
  if (width == 0) return 0;
  const std::size_t k = words - 1 - static_cast<std::size_t>(off / 64);
  const auto s = static_cast<unsigned>(off % 64);
  std::uint64_t x = code[k] >> s;
  if (s + width > 64) x |= code[k - 1] << (64 - s);
  return static_cast<std::uint32_t>(x & ((std::uint64_t{1} << width) - 1));
}

/// Whether bits [0, nbits) of a `words`-word code are all zero.
[[nodiscard]] bool low_bits_zero(const std::uint64_t* code, std::size_t words,
                                 std::uint64_t nbits) noexcept {
  std::size_t k = words - 1;
  for (; nbits >= 64; nbits -= 64) {
    if (code[k--] != 0) return false;
  }
  return nbits == 0 || (code[k] & ((std::uint64_t{1} << nbits) - 1)) == 0;
}

/// ORs `value` (< 2^width) into bits [off, off + width) of a code.
void set_field(std::uint64_t* code, std::size_t words, std::uint64_t off,
               std::uint32_t width, std::uint32_t value) noexcept {
  const std::size_t k = words - 1 - static_cast<std::size_t>(off / 64);
  const auto s = static_cast<unsigned>(off % 64);
  code[k] |= std::uint64_t{value} << s;
  if (s + width > 64) code[k - 1] |= std::uint64_t{value} >> (64 - s);
}

/// Bit offset of each level's field: level 0 lowest, the root's (width 0)
/// at Σ widths.
[[nodiscard]] std::vector<std::uint64_t> field_offsets(
    std::span<const std::uint32_t> widths) {
  std::vector<std::uint64_t> off(widths.size(), 0);
  for (std::size_t l = 1; l < widths.size(); ++l) {
    off[l] = off[l - 1] + widths[l - 1];
  }
  return off;
}

[[nodiscard]] std::size_t words_for(std::uint64_t bits) noexcept {
  return std::max<std::size_t>(1, static_cast<std::size_t>((bits + 63) / 64));
}

}  // namespace

FrtIndex FrtIndex::build(const FrtTree& tree) {
  PMTE_OBS_SPAN("index.build", static_cast<std::int64_t>(tree.num_levels()),
                "levels");
  FrtIndex idx;
  const unsigned levels = tree.num_levels();
  const Vertex n = tree.num_leaves();
  idx.levels_ = levels;
  idx.beta_ = tree.beta();
  idx.dist_by_lca_level_ = tree.distance_by_lca_level();
  // Build into plain vectors, then hand them to the owned-or-mapped
  // sections (ArraySection is read-only by design).
  std::vector<Weight> edge_weight(levels);
  for (unsigned l = 0; l < levels; ++l) edge_weight[l] = tree.edge_weight(l);
  idx.edge_weight_by_level_ = std::move(edge_weight);

  // A parent's id is below its children's, so one ascending pass gives
  // each node its child number (how many children its parent has so far)
  // and each level its width.
  const std::size_t nodes = tree.num_nodes();
  const auto scratch =
      std::make_unique_for_overwrite<std::uint32_t[]>(2 * nodes);
  std::uint32_t* child = scratch.get();
  std::uint32_t* children = child + nodes;  // children met so far
  std::fill(children, children + nodes, 0);
  std::vector<std::uint32_t> widths(levels, 0);
  for (NodeId id = 1; id < nodes; ++id) {
    const NodeId p = tree.parent(id);
    const unsigned l = tree.level(id);
    PMTE_ASSERT(p < id && tree.level(p) == l + 1,
                "FrtIndex: parent not above child");
    const std::uint32_t c = children[p]++;
    child[id] = c;
    widths[l] =
        std::max(widths[l], static_cast<std::uint32_t>(std::bit_width(c)));
  }
  // Each vertex ORs the child numbers on its leaf-to-root path into its
  // code (a zero child number sets no bit).
  const auto off = field_offsets(widths);
  const std::size_t words = words_for(off[levels - 1]);
  std::vector<std::uint64_t> codes(std::size_t{n} * words, 0);
  for (Vertex v = 0; v < n; ++v) {
    std::uint64_t* code = codes.data() + std::size_t{v} * words;
    for (NodeId x = tree.leaf(v); x != 0; x = tree.parent(x)) {
      if (child[x] != 0) {
        const unsigned l = tree.level(x);
        set_field(code, words, off[l], widths[l], child[x]);
      }
    }
  }
  idx.widths_ = std::move(widths);
  idx.codes_ = std::move(codes);
  idx.check_tree();
  return idx;
}

void FrtIndex::check_tree() {
  const unsigned levels = levels_;
  PMTE_CHECK(levels >= 1, "FrtIndex: no levels");
  PMTE_CHECK(beta_ >= 1.0 && beta_ < 2.0, "FrtIndex: beta outside [1,2)");
  PMTE_CHECK(dist_by_lca_level_.size() == levels &&
                 edge_weight_by_level_.size() == levels &&
                 widths_.size() == levels,
             "FrtIndex: level table size mismatch");
  PMTE_CHECK(dist_by_lca_level_[0] == 0.0,
             "FrtIndex: LCA distance table must start at 0");
  for (unsigned l = 0; l < levels; ++l) {
    const Weight w = edge_weight_by_level_[l];
    PMTE_CHECK(w > 0.0 && is_finite(w), "FrtIndex: bad per-level edge weight");
    // dist_by_lca_level_ is Σ_{l'<l} 2·w_{l'} accumulated ascending, so the
    // two persisted tables must agree exactly (and the table increases).
    if (l + 1 < levels) {
      const Weight next = dist_by_lca_level_[l + 1];
      PMTE_CHECK(next == dist_by_lca_level_[l] + 2.0 * w && is_finite(next),
                 "FrtIndex: edge weights inconsistent with LCA table");
    }
  }

  // Code geometry.  Widths are bounded before they are summed.
  PMTE_CHECK(widths_[levels - 1] == 0, "FrtIndex: non-zero root width " +
                                           std::to_string(widths_[levels - 1]));
  for (const std::uint32_t w : widths_) {
    PMTE_CHECK(w <= kMaxWidth, "FrtIndex: level width " + std::to_string(w) +
                                   " above 31 bits");
  }
  const auto off = field_offsets(widths_);
  const std::uint64_t bits = off[levels - 1];
  const std::size_t words = words_for(bits);
  PMTE_CHECK(!codes_.empty() && codes_.size() % words == 0,
             "FrtIndex: code array length " + std::to_string(codes_.size()) +
                 " is not a positive multiple of " + std::to_string(words) +
                 " word(s)");
  const std::size_t n = codes_.size() / words;
  PMTE_CHECK(n * levels <= 0x7fffffffULL,
             "FrtIndex: too large for u32 node ids");
  // The unused high bits of word 0 (64 of them when no level has a field).
  const auto spare = static_cast<unsigned>(64 * words - bits);
  for (std::size_t v = 0; spare != 0 && v < n; ++v) {
    PMTE_CHECK(codes_[v * words] >> (64 - spare) == 0,
               "FrtIndex: code bits set above the " + std::to_string(bits) +
                   " bit(s) the widths use");
  }

  const auto code = [&](std::size_t v) { return codes_.data() + v * words; };

  // LCA level by the highest differing bit, indexed 64·w + clz: a bit of
  // level l's field means an LCA at level l + 1; the unused high bits never
  // differ, and the last entry (no bit differs) is level 0.
  words_ = words;
  lca_level_at_bit_.assign(64 * words + 1, levels - 1);
  lca_level_at_bit_.back() = 0;
  for (unsigned l = 0; l + 1 < levels; ++l) {
    for (std::uint64_t b = off[l]; b < off[l + 1]; ++b) {
      lca_level_at_bit_[64 * words - 1 - b] = l + 1;
    }
  }

  // Sort the vertices by code (LSD radix sort, 8 used bits per pass).  Of
  // the vertices below v, the one sharing v's deepest node is then a
  // neighbour of v in sorted order among them; unlinking v = n − 1, …, 1
  // from a list in sorted order leaves exactly those neighbours beside v.
  // met[v] is that node's level, the number of nodes v meets first, and
  // near[v] the neighbour.
  const auto scratch =
      std::make_unique_for_overwrite<std::uint32_t[]>(8 * n + 4);
  std::uint32_t* order = scratch.get();
  std::uint32_t* pos = order + n;
  std::uint32_t* digit = pos + n;
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<std::uint32_t>(v);
  for (std::uint64_t lo = 0; lo < bits; lo += 8) {
    const auto w =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(8, bits - lo));
    std::array<std::uint32_t, 257> bucket{};
    for (std::size_t v = 0; v < n; ++v) {
      digit[v] = field(code(v), words, lo, w);
      ++bucket[digit[v] + 1];
    }
    for (std::size_t d = 1; d < bucket.size(); ++d) bucket[d] += bucket[d - 1];
    for (std::size_t i = 0; i < n; ++i) {
      pos[bucket[digit[order[i]]]++] = order[i];
    }
    std::swap(order, pos);
  }
  // The list runs over positions 1..n (vertex order[i − 1] at i), with
  // sentinels 0 and n + 1.
  std::uint32_t* prev = digit + n;
  std::uint32_t* next = prev + n + 2;
  std::uint32_t* met = next + n + 2;
  std::uint32_t* near = met + n;
  std::uint32_t* shared = near + n;
  for (std::size_t i = 0; i < n; ++i) {
    pos[order[i]] = static_cast<std::uint32_t>(i + 1);
    prev[i + 1] = static_cast<std::uint32_t>(i);
    next[i + 1] = static_cast<std::uint32_t>(i + 2);
  }
  met[0] = levels - 1;
  std::size_t nodes = 1 + met[0];
  for (std::size_t v = n; v-- > 1;) {
    const std::uint32_t i = pos[v];
    const std::uint32_t p = prev[i];
    const std::uint32_t q = next[i];
    const std::uint32_t up = order[p != 0 ? p - 1 : 0];
    const std::uint32_t uq = order[q != n + 1 ? q - 1 : 0];
    const auto w = static_cast<Vertex>(v);
    const std::uint32_t ap = p == 0 ? levels : code_lca_level(up, w);
    const std::uint32_t aq = q == n + 1 ? levels : code_lca_level(uq, w);
    const std::uint32_t best = std::min(ap, aq);
    // Aliased leaves would silently serve distance 0 for distinct vertices.
    PMTE_CHECK(best != 0, "FrtIndex: two vertices share a code");
    met[v] = best;
    near[v] = ap <= aq ? up : uq;
    nodes += best;
    next[p] = q;
    prev[q] = p;
  }

  // FrtTree::build's walk, v = 0, 1, … top-down: v's path reaches the node
  // it shares with near[v] (near[v]'s ancestor at level met[v]) and then
  // meets met[v] new nodes, numbered in that order — the first as that
  // node's next child, the others as first children.  So v's child number
  // on level met[v] − 1 must be that node's child count so far, and all
  // its bits below must be zero.  Widths must be minimal: on each level,
  // bit_width(largest child number).  The walk's node parents, child
  // counts so far and vertex leaves are scratch.
  const auto walk =
      std::make_unique_for_overwrite<std::uint32_t[]>(2 * nodes + n);
  NodeId* parent = walk.get();
  std::uint32_t* kids = parent + nodes;
  NodeId* leaf = kids + nodes;
  std::vector<std::uint32_t> most(levels, 0);
  parent[0] = 0;
  kids[0] = 0;
  NodeId next_id = 1;
  bool out_of_order = false;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t a = met[v];
    // The shared node: near[v] = u met its own nodes on the levels below
    // met[u], the one on level l numbered leaf[u] − l; higher ones are
    // ancestors of the node u shares, shared[u].
    NodeId x = 0;
    if (v != 0) {
      const std::uint32_t u = near[v];
      const bool own = a < met[u];
      x = own ? leaf[u] - a : shared[u];
      for (std::uint32_t l = own ? a : met[u]; l < a; ++l) x = parent[x];
    }
    shared[v] = x;
    if (a != 0) {
      const std::uint32_t c =
          field(code(v), words, off[a - 1], widths_[a - 1]);
      out_of_order |=
          c != kids[x] || !low_bits_zero(code(v), words, off[a - 1]);
      ++kids[x];
      most[a - 1] = std::max(most[a - 1], c);
    }
    for (std::uint32_t l = a; l-- > 0;) {
      // A new inner node's child 0 is the next new node.
      parent[next_id] = x;
      kids[next_id] = l != 0 ? 1 : 0;
      x = next_id++;
    }
    leaf[v] = x;
  }
  PMTE_CHECK(!out_of_order, "FrtIndex: child numbers out of first-meet order");
  for (unsigned l = 0; l + 1 < levels; ++l) {
    PMTE_CHECK(
        static_cast<std::uint32_t>(std::bit_width(most[l])) == widths_[l],
        "FrtIndex: level " + std::to_string(l) + " width " +
            std::to_string(widths_[l]) +
            " is not minimal for its largest child number " +
            std::to_string(most[l]));
  }
  nodes_ = nodes;
}

Weight FrtIndex::distance(Vertex u, Vertex v) const {
  return dist_by_lca_level_[lca_level(u, v)];
}

unsigned FrtIndex::lca_level(Vertex u, Vertex v) const {
  PMTE_CHECK(u < num_leaves() && v < num_leaves(),
             "FrtIndex: vertex out of range");
  return code_lca_level(u, v);
}

// Field order is normative — docs/FORMAT.md documents this exact layout.
void FrtIndex::save_into(BinaryWriter& w) const {
  w.magic(kIndexMagic);
  w.u32(levels_);
  w.f64(beta_);
  w.vec_u32(widths_);
  w.vec_u64(codes_);
  w.vec_f64(dist_by_lca_level_);
  w.vec_f64(edge_weight_by_level_);
}

FrtIndex FrtIndex::load_from(ImageReader& r) {
  r.expect_magic(kIndexMagic);
  FrtIndex idx;
  idx.levels_ = r.u32();
  idx.beta_ = r.f64();
  idx.widths_ = r.vec_u32();
  idx.codes_ = r.vec_u64();
  idx.dist_by_lca_level_ = r.vec_f64();
  idx.edge_weight_by_level_ = r.vec_f64();
  idx.check_tree();
  return idx;
}

}  // namespace pmte::serve
