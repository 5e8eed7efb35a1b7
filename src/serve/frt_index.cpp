#include "src/serve/frt_index.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/obs.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/assertions.hpp"

namespace pmte::serve {

FrtIndex FrtIndex::build(const FrtTree& tree) {
  PMTE_OBS_SPAN("index.build", static_cast<std::int64_t>(tree.num_levels()),
                "levels");
  FrtIndex idx;
  idx.levels_ = tree.num_levels();
  idx.beta_ = tree.beta();
  idx.anc_ = tree.ancestor_rows();
  idx.dist_by_lca_level_ = tree.distance_by_lca_level();
  // Build into a plain vector, then hand it to the owned-or-mapped section
  // (ArraySection is read-only by design).
  std::vector<Weight> edge_weight(idx.levels_);
  for (unsigned l = 0; l < idx.levels_; ++l) {
    edge_weight[l] = tree.edge_weight(l);
  }
  idx.edge_weight_by_level_ = std::move(edge_weight);
  idx.derive_structure();
  return idx;
}

void FrtIndex::derive_structure() {
  const unsigned levels = levels_;
  PMTE_CHECK(levels >= 1, "FrtIndex: no levels");
  PMTE_CHECK(beta_ >= 1.0 && beta_ < 2.0, "FrtIndex: beta outside [1,2)");
  PMTE_CHECK(dist_by_lca_level_.size() == levels &&
                 edge_weight_by_level_.size() == levels,
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

  PMTE_CHECK(!anc_.empty() && anc_.size() % levels == 0,
             "FrtIndex: ancestor rows are not n × levels");
  PMTE_CHECK(anc_.size() <= 0x7fffffffULL,
             "FrtIndex: too large for u32 node ids");
  // Every id in [0, N) must occur, so N ≤ n·L bounds the id range before
  // anything is sized by it.
  NodeId max_id = 0;
  for (const NodeId id : anc_) {
    PMTE_CHECK(id < anc_.size(), "FrtIndex: node id out of range");
    max_id = std::max(max_id, id);
  }
  const std::size_t nodes = std::size_t{max_id} + 1;
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> node_level(nodes, kUnset);
  std::vector<NodeId> parent(nodes, kUnset);
  std::vector<Vertex> leaf_vertex(nodes, no_vertex());
  const NodeId root = anc_[levels - 1];
  const Vertex n = num_leaves();
  for (Vertex v = 0; v < n; ++v) {
    const NodeId* r = row(v);
    PMTE_CHECK(r[levels - 1] == root,
               "FrtIndex: rows do not converge on one root");
    for (unsigned l = 0; l < levels; ++l) {
      const NodeId id = r[l];
      PMTE_CHECK(node_level[id] == kUnset || node_level[id] == l,
                 "FrtIndex: a node id appears at two levels");
      node_level[id] = l;
      if (l + 1 == levels) continue;
      // Buy-at-bulk's bottom-up walk relies on ids descending being
      // children-first, so a parent must carry the smaller id.
      PMTE_CHECK(r[l + 1] < id, "FrtIndex: parent id not below child id");
      PMTE_CHECK(parent[id] == kUnset || parent[id] == r[l + 1],
                 "FrtIndex: a node has two parents");
      parent[id] = r[l + 1];
    }
    // Aliased leaves would silently serve distance 0 for distinct vertices.
    PMTE_CHECK(leaf_vertex[r[0]] == no_vertex(),
               "FrtIndex: two vertices share a leaf");
    leaf_vertex[r[0]] = v;
  }
  for (std::size_t id = 0; id < nodes; ++id) {
    PMTE_CHECK(node_level[id] != kUnset,
               "FrtIndex: a node id is never referenced");
  }

  // Children CSR: ids ascending within each parent (children are numbered
  // in creation order), which fixes the apps' floating-point fold order.
  child_offset_.assign(nodes + 1, 0);
  for (std::size_t id = 0; id < nodes; ++id) {
    if (id != root) ++child_offset_[parent[id] + 1];
  }
  for (std::size_t id = 0; id < nodes; ++id) {
    child_offset_[id + 1] += child_offset_[id];
  }
  child_list_.assign(nodes - 1, 0);
  std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                    child_offset_.end() - 1);
  for (std::size_t id = 0; id < nodes; ++id) {
    if (id == root) continue;
    child_list_[cursor[parent[id]]++] = static_cast<NodeId>(id);
  }
  node_level_ = std::move(node_level);
  node_leaf_vertex_ = std::move(leaf_vertex);
}

Weight FrtIndex::distance(Vertex u, Vertex v) const {
  return dist_by_lca_level_[lca_level(u, v)];
}

FrtIndex::NodeId FrtIndex::lca(Vertex u, Vertex v) const {
  return row(u)[lca_level(u, v)];
}

unsigned FrtIndex::lca_level(Vertex u, Vertex v) const {
  PMTE_CHECK(u < num_leaves() && v < num_leaves(),
             "FrtIndex: vertex out of range");
  return differing_levels(row(u), row(v));
}

// Field order is normative — docs/FORMAT.md documents this exact layout.
void FrtIndex::save_into(BinaryWriter& w) const {
  w.magic(kIndexMagic);
  w.u32(levels_);
  w.f64(beta_);
  w.vec_u32(anc_);
  w.vec_f64(dist_by_lca_level_);
  w.vec_f64(edge_weight_by_level_);
}

FrtIndex FrtIndex::load_from(ImageReader& r) {
  r.expect_magic(kIndexMagic);
  FrtIndex idx;
  idx.levels_ = r.u32();
  idx.beta_ = r.f64();
  idx.anc_ = r.vec_u32();
  idx.dist_by_lca_level_ = r.vec_f64();
  idx.edge_weight_by_level_ = r.vec_f64();
  idx.derive_structure();
  return idx;
}

}  // namespace pmte::serve
