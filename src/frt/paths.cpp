#include "src/frt/paths.hpp"

#include <algorithm>

#include "src/util/assertions.hpp"

namespace pmte {

PathUnfolder::PathUnfolder(const Graph& g, const FrtTree& tree)
    : g_(g), tree_(tree) {
  PMTE_CHECK(g.num_vertices() == tree.num_leaves(),
             "tree/graph vertex count mismatch");
  const std::size_t nodes = tree.num_nodes();
  representative_.assign(nodes, no_vertex());
  for (Vertex v = 0; v < tree.num_leaves(); ++v) {
    representative_[tree.leaf(v)] = v;
  }
  // Ids descending visit children before parents (and each parent's
  // largest-id child first), so a representative is final when handed up.
  for (auto id = static_cast<FrtTree::NodeId>(nodes); id-- > 1;) {
    Vertex& up = representative_[tree.parent(id)];
    if (up == no_vertex()) up = representative_[id];
  }
}

const SsspResult& PathUnfolder::sssp_from(Vertex source) {
  auto it = cache_.find(source);
  if (it == cache_.end()) {
    it = cache_.emplace(source, dijkstra(g_, source)).first;
  }
  return it->second;
}

UnfoldedEdge PathUnfolder::unfold(FrtTree::NodeId child) {
  PMTE_CHECK(child > 0 && child < tree_.num_nodes(),
             "unfold: the root (id 0) has no parent edge, or no such node");
  const Vertex a = tree_.leading(child);
  const Vertex b = tree_.leading(tree_.parent(child));
  const Vertex v0 = representative_[child];

  const auto& sp = sssp_from(v0);
  auto trace = [&](Vertex target) {
    std::vector<Vertex> rev;
    PMTE_CHECK(is_finite(sp.dist[target]),
               "leading vertex unreachable from representative leaf");
    for (Vertex v = target; v != no_vertex(); v = sp.parent[v]) {
      rev.push_back(v);
      if (v == v0) break;
    }
    PMTE_CHECK(rev.back() == v0, "path trace did not reach the leaf");
    return rev;  // target … v0
  };

  UnfoldedEdge out;
  // a … v0 … b
  auto to_a = trace(a);           // a … v0
  const auto to_b = trace(b);     // b … v0
  out.path = std::move(to_a);
  out.path.insert(out.path.end(), to_b.rbegin() + 1, to_b.rend());
  std::reverse(out.path.begin(), out.path.end());  // cosmetic: b … v0 … a
  out.weight = sp.dist[a] + sp.dist[b];
  return out;
}

}  // namespace pmte
