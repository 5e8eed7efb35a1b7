// The algebraic MBF-like toolbox (Section 3 of the paper) in action:
// one engine, many algorithms — distances, detection, bottleneck paths,
// k-shortest paths and reachability on the same graph.
//
//   ./algebraic_toolbox [--seed=7]

#include <iostream>

#include "src/graph/generators.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv, {Flag::seed(7)});
  Rng rng(cli.seed());

  // A small "sensor network": random geometric graph in the unit square.
  const Graph g = make_geometric(60, 0.25, rng);
  std::cout << "sensor network: n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n\n";

  // --- SSSP over Smin,+ (Example 3.3) --------------------------------
  const auto dist = mbf_sssp(g, 0);
  std::cout << "[SSSP] dist(0, 30) = " << dist[30] << "\n";

  // --- Source detection (Example 3.2): 3 gateways, 2 nearest each -----
  const std::vector<Vertex> gateways{5, 25, 45};
  const auto det = mbf_source_detection(g, gateways, g.num_vertices(), 2);
  std::cout << "[source detection] vertex 30 sees gateways:";
  for (const auto& e : det[30].entries()) {
    std::cout << " (" << e.key << " at " << e.dist << ")";
  }
  std::cout << "\n";

  // --- Forest fire (Example 3.7): who is within radius 0.3 of a fire? --
  const auto fire = mbf_forest_fire(g, std::vector<Vertex>{10}, 0.3);
  std::size_t alarmed = 0;
  for (const bool b : fire.alarmed) alarmed += b;
  std::cout << "[forest fire] " << alarmed << "/" << g.num_vertices()
            << " sensors within 0.3 of the fire at vertex 10\n";

  // --- Widest path over Smax,min (Example 3.13): trust propagation -----
  const auto width = mbf_sswp(g, 0);
  std::cout << "[widest path] bottleneck capacity 0 -> 30 = " << width[30]
            << "\n";

  // --- k-SDP over Pmin,+ (Example 3.23): 2 shortest routes to vertex 0 -
  const auto routes = mbf_ksdp(g, 0, 2);
  std::cout << "[k-SDP] routes from 30 to 0:\n";
  for (const auto& e : routes[30].entries()) {
    std::cout << "  weight " << e.weight << " via";
    for (const Vertex v : e.path.hops) std::cout << " " << v;
    std::cout << "\n";
  }

  // --- Boolean reachability (Example 3.25) ----------------------------
  const auto reach = mbf_reachability(g, std::vector<Vertex>{0}, 3);
  std::size_t within3 = 0;
  for (const auto& r : reach) within3 += !r.empty();
  std::cout << "[reachability] " << within3
            << " vertices within 3 hops of vertex 0\n";
  return 0;
}
