// Network backbone provisioning with buy-at-bulk (Section 10).
//
//   ./buyatbulk_backbone [--n=300] [--demands=80] [--seed=13]
//
// Data centres scattered in the plane must exchange fixed traffic volumes;
// link capacity comes in three cable sizes with economies of scale.  The
// FRT-based algorithm (Theorem 10.2) consolidates traffic on a sampled
// tree; we compare against per-demand shortest-path routing and the
// fractional lower bound.

#include <cmath>
#include <iostream>

#include "src/apps/buyatbulk.hpp"
#include "src/graph/generators.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv,  // a demand joins two distinct sites
                {Flag::integer("n", 300, 2, 1'000'000),
                 Flag::integer("demands", 80, 1, 1'000'000), Flag::seed(13)});
  Rng rng(cli.seed());
  const auto n = static_cast<Vertex>(cli.get_int("n"));
  const auto demand_count = static_cast<std::size_t>(cli.get_int("demands"));

  const Graph net =
      make_geometric(n, 2.0 / std::sqrt(static_cast<double>(n)), rng);
  std::cout << "fibre network: " << net.num_vertices() << " sites, "
            << net.num_edges() << " possible links\n";

  const std::vector<CableType> cables{
      {1.0, 1.0},    // OC-1 : 1 unit of capacity, unit cost/km
      {12.0, 5.0},   // OC-12: 12 units for 5x the cost
      {96.0, 20.0},  // OC-96: 96 units for 20x the cost
  };

  std::vector<Demand> demands;
  while (demands.size() < demand_count) {
    const auto s = static_cast<Vertex>(rng.below(n));
    const auto t = static_cast<Vertex>(rng.below(n));
    if (s == t) continue;
    demands.push_back(Demand{s, t, std::floor(rng.uniform(1.0, 16.0))});
  }

  const auto r = buy_at_bulk(net, demands, cables, {}, rng);
  std::cout << "\nprovisioning " << demands.size() << " demands:\n";
  std::cout << "  FRT consolidation (Thm 10.2): " << r.cost << "\n";
  std::cout << "  direct shortest-path routing: " << r.direct_cost << "\n";
  std::cout << "  fractional lower bound      : " << r.lower_bound << "\n";
  std::cout << "  FRT / LB = " << r.cost / r.lower_bound
            << ", direct / LB = " << r.direct_cost / r.lower_bound << "\n";
  std::cout << "  tree edges carrying traffic : " << r.loaded_tree_edges
            << " (unfolded with " << r.dijkstra_runs << " Dijkstra runs)\n";
  return 0;
}
