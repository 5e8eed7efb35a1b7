#include "src/apps/buyatbulk.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

#include "src/frt/paths.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/frt_index.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

double cable_cost_per_unit_length(double flow,
                                  const std::vector<CableType>& cables) {
  PMTE_CHECK(!cables.empty(), "need at least one cable type");
  if (flow <= 0.0) return 0.0;
  double best = inf_weight();
  for (const auto& c : cables) {
    PMTE_CHECK(c.capacity > 0.0 && c.cost > 0.0, "invalid cable type");
    best = std::min(best, c.cost * std::ceil(flow / c.capacity));
  }
  return best;
}

double price_paths(const Graph& g,
                   const std::vector<std::vector<Vertex>>& paths,
                   const std::vector<double>& amounts,
                   const std::vector<CableType>& cables) {
  PMTE_CHECK(paths.size() == amounts.size(), "paths/amounts mismatch");
  // Aggregate flow per undirected edge.  The per-edge sums are folded
  // into `total` below by iterating this map, so it must be ordered:
  // std::map walks keys ascending, making the FP accumulation order (and
  // hence the returned cost bits) a pure function of the inputs rather
  // than of a hash table's layout.
  std::map<std::uint64_t, double> flow;
  auto key = [](Vertex a, Vertex b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (std::size_t i = 1; i < paths[p].size(); ++i) {
      flow[key(paths[p][i - 1], paths[p][i])] += amounts[p];
    }
  }
  double total = 0.0;
  for (const auto& [k, f] : flow) {
    const auto u = static_cast<Vertex>(k >> 32);
    const auto v = static_cast<Vertex>(k & 0xffffffffULL);
    const Weight w = g.edge_weight(u, v);
    PMTE_CHECK(is_finite(w), "path uses a non-edge");
    total += cable_cost_per_unit_length(f, cables) * w;
  }
  return total;
}

namespace {

/// Trace the shortest s→t path from a Dijkstra run.
std::vector<Vertex> trace_path(const SsspResult& sp, Vertex s, Vertex t) {
  std::vector<Vertex> rev;
  PMTE_CHECK(is_finite(sp.dist[t]), "demand endpoints disconnected");
  for (Vertex v = t; v != no_vertex(); v = sp.parent[v]) {
    rev.push_back(v);
    if (v == s) break;
  }
  PMTE_CHECK(rev.back() == s, "path trace failed");
  std::reverse(rev.begin(), rev.end());
  return rev;
}

}  // namespace

BabResult buy_at_bulk(const Graph& g, const std::vector<Demand>& demands,
                      const std::vector<CableType>& cables,
                      const BabOptions& opts, Rng& rng) {
  PMTE_CHECK(!demands.empty(), "no demands");
  // Every later stage indexes per-vertex arrays by both endpoints.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    PMTE_CHECK(d.s < g.num_vertices() && d.t < g.num_vertices() &&
                   std::isfinite(d.amount) && d.amount >= 0.0,
               "demand " + std::to_string(i) +
                   ": endpoints must be vertices and the amount finite, >= 0");
  }
  BabResult out;

  // --- Baselines -----------------------------------------------------
  const double unit_rate = [&] {
    double r = inf_weight();
    for (const auto& c : cables) r = std::min(r, c.cost / c.capacity);
    return r;
  }();
  {
    // pmte-lint: ordered-ok(memo cache: find/emplace by source vertex only, never iterated — demand order drives all output)
    std::unordered_map<Vertex, SsspResult> sssp_cache;
    std::vector<std::vector<Vertex>> paths;
    std::vector<double> amounts;
    for (const auto& d : demands) {
      auto it = sssp_cache.find(d.s);
      if (it == sssp_cache.end()) {
        it = sssp_cache.emplace(d.s, dijkstra(g, d.s)).first;
      }
      paths.push_back(trace_path(it->second, d.s, d.t));
      amounts.push_back(d.amount);
      out.lower_bound += d.amount * it->second.dist[d.t] * unit_rate;
    }
    out.direct_cost = price_paths(g, paths, amounts, cables);
  }

  // --- (1) Tree embedding --------------------------------------------
  FrtSample sample = opts.use_oracle_pipeline
                         ? sample_frt_oracle(g, rng, opts.frt)
                         : sample_frt_direct(g, rng, opts.frt);
  const FrtTree& tree = sample.tree;

  // --- (2) Route demands on the tree, accumulate per-edge flow -------
  // A leaf-to-leaf path climbs to the LCA; flows are accumulated bottom-up
  // with a difference trick: +amount at both leaves, −2·amount at the LCA.
  // The flat index keeps the tree's node ids, so edge_flow is indexed like
  // the tree in step (3).
  const auto index = serve::FrtIndex::build(tree);
  std::vector<double> updo(index.num_nodes(), 0.0);
  for (const auto& d : demands) {
    if (d.s == d.t) continue;
    const auto top = index.lca(d.s, d.t);  // two codes read
    out.counters.lca_probes += serve::FrtIndex::kLcaProbesPerQuery;
    updo[index.leaf_node(d.s)] += d.amount;
    updo[index.leaf_node(d.t)] += d.amount;
    updo[top] -= 2.0 * d.amount;
  }
  // flow over a node's parent edge = Σ subtree deltas; ids descending =
  // children before parents, CSR children in ascending id order.
  std::vector<double> edge_flow(index.num_nodes(), 0.0);
  const auto root = index.root();
  for (auto id = static_cast<FrtTree::NodeId>(index.num_nodes()); id-- > 0;) {
    ++out.counters.tree_lookups;
    double f = updo[id];
    for (const auto c : index.children(id)) f += edge_flow[c];
    edge_flow[id] = f;
    if (id != root && f > 1e-12) {
      out.tree_cost += cable_cost_per_unit_length(f, cables) *
                       index.edge_weight(index.level(id));
      ++out.loaded_tree_edges;
    }
  }

  // --- (3) Map loaded tree edges back to graph paths -----------------
  PathUnfolder unfolder(g, tree);
  std::vector<std::vector<Vertex>> g_paths;
  std::vector<double> g_amounts;
  for (FrtTree::NodeId id = 0; id < index.num_nodes(); ++id) {
    if (id == root || edge_flow[id] <= 1e-12) continue;
    auto unfolded = unfolder.unfold(id);
    if (unfolded.path.size() < 2) continue;  // degenerate: zero-length walk
    g_paths.push_back(std::move(unfolded.path));
    g_amounts.push_back(edge_flow[id]);
  }
  out.dijkstra_runs = unfolder.dijkstra_runs();
  out.cost = price_paths(g, g_paths, g_amounts, cables);
  return out;
}

}  // namespace pmte
