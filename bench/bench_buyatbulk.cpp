// E10 — buy-at-bulk network design (Section 10, Theorem 10.2).
//
// Claim: routing on a sampled FRT tree and mapping back gives an expected
// O(log n)-approximation.  We report the tree-based cost against the
// fractional lower bound and the no-consolidation direct-routing baseline.

#include "bench/bench_common.hpp"
#include "src/apps/buyatbulk.hpp"

namespace pmte::bench {
namespace {

/// One gated scenario: route a fixed demand set and report the tree-walk
/// counters plus a 32-bit hash of the costs and loaded-edge count.
CounterScenario bab_scenario(const std::string& name,
                             const std::string& family, Vertex n,
                             std::size_t demand_count, std::uint64_t seed) {
  auto inst = make_instance(family, n, seed);
  const std::vector<CableType> cables{{1.0, 1.0}, {8.0, 4.0}, {64.0, 16.0}};
  Rng rng(seed);
  std::vector<Demand> demands;
  while (demands.size() < demand_count) {
    const auto s = static_cast<Vertex>(rng.below(inst.graph.num_vertices()));
    const auto t = static_cast<Vertex>(rng.below(inst.graph.num_vertices()));
    if (s == t) continue;
    demands.push_back(Demand{s, t, std::floor(rng.uniform(1.0, 8.0))});
  }
  const auto r = buy_at_bulk(inst.graph, demands, cables, {}, rng);
  std::uint64_t hash = fnv1a_fold_f64(kFnv1aInit, r.cost);
  hash = fnv1a_fold_f64(hash, r.tree_cost);
  hash = fnv1a_fold(hash, r.loaded_tree_edges);
  return CounterScenario{
      name,
      {{"tree_lookups", r.counters.tree_lookups},
       {"lca_probes", r.counters.lca_probes},
       {"result_hash32", fold32(hash)}}};
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  scenarios.push_back(
      bab_scenario("bab_flat_grid_256", "grid", 256, 128, 4201));
  scenarios.push_back(
      bab_scenario("bab_flat_geometric_256", "geometric", 256, 128, 4202));
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header("E10: buy-at-bulk",
               "Theorem 10.2 — expected O(log n)-approximation via FRT "
               "routing + per-edge cable optimisation");
  Rng rng(args.seed);
  const std::vector<CableType> cables{{1.0, 1.0}, {8.0, 4.0}, {64.0, 16.0}};
  const std::vector<Vertex> sizes = args.small
                                        ? std::vector<Vertex>{128}
                                        : std::vector<Vertex>{128, 256, 512};
  Table t({"family", "n", "demands", "FRT cost", "direct cost",
           "lower bound", "FRT/LB", "direct/LB", "tree cost",
           "loaded edges"});

  for (const auto* family : {"geometric", "grid"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      for (const std::size_t demand_count : {32U, 128U}) {
        std::vector<Demand> demands;
        while (demands.size() < demand_count) {
          const auto s = static_cast<Vertex>(rng.below(g.num_vertices()));
          const auto u = static_cast<Vertex>(rng.below(g.num_vertices()));
          if (s == u) continue;
          demands.push_back(Demand{s, u, std::floor(rng.uniform(1.0, 8.0))});
        }
        const auto r = buy_at_bulk(g, demands, cables, {}, rng);
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                   cell(demand_count), cell(r.cost), cell(r.direct_cost),
                   cell(r.lower_bound), cell(r.cost / r.lower_bound),
                   cell(r.direct_cost / r.lower_bound), cell(r.tree_cost),
                   cell(r.loaded_tree_edges)});
      }
    }
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run,
                                 pmte::bench::run_counters);
}
