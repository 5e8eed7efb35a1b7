#include "src/apps/buyatbulk.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

#include "src/frt/paths.hpp"
#include "src/graph/shortest_paths.hpp"
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
  PMTE_CHECK(!cables.empty(), "need at least one cable type");
  for (std::size_t i = 0; i < cables.size(); ++i) {
    const CableType& c = cables[i];
    PMTE_CHECK(std::isfinite(c.capacity) && c.capacity > 0.0 &&
                   std::isfinite(c.cost) && c.cost > 0.0,
               "cable " + std::to_string(i) +
                   ": capacity and cost must be finite and > 0");
  }
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
  std::vector<double> flow(tree.num_nodes(), 0.0);
  for (const auto& d : demands) {
    if (d.s == d.t) continue;
    const auto top = tree.lca(d.s, d.t);
    out.counters.lca_probes += 2;  // its two leaves
    flow[tree.leaf(d.s)] += d.amount;
    flow[tree.leaf(d.t)] += d.amount;
    flow[top] -= 2.0 * d.amount;
  }
  // Ids descending visit children before parents, so a node's flow is the
  // one over its parent edge when it is handed up.
  out.counters.tree_lookups += tree.num_nodes();
  for (auto id = static_cast<FrtTree::NodeId>(tree.num_nodes()); id-- > 1;) {
    const double f = flow[id];
    flow[tree.parent(id)] += f;
    if (f > 1e-12) {
      out.tree_cost += cable_cost_per_unit_length(f, cables) *
                       tree.edge_weight(tree.level(id));
      ++out.loaded_tree_edges;
    }
  }

  // --- (3) Map loaded tree edges back to graph paths -----------------
  PathUnfolder unfolder(g, tree);
  std::vector<std::vector<Vertex>> g_paths;
  std::vector<double> g_amounts;
  for (FrtTree::NodeId id = 1; id < tree.num_nodes(); ++id) {
    if (flow[id] <= 1e-12) continue;
    auto unfolded = unfolder.unfold(id);
    if (unfolded.path.size() < 2) continue;  // degenerate: zero-length walk
    g_paths.push_back(std::move(unfolded.path));
    g_amounts.push_back(flow[id]);
  }
  out.dijkstra_runs = unfolder.dijkstra_runs();
  out.cost = price_paths(g, g_paths, g_amounts, cables);
  return out;
}

}  // namespace pmte
