// Distributed tree embedding in the Congest model (Section 8).
//
//   ./congest_distributed_embedding [--n=400] [--seed=17]
//
// Simulates both distributed FRT algorithms on a network with large
// shortest-path diameter but small hop diameter — the regime where the
// skeleton-based algorithm (Theorem 8.1) beats direct iteration
// (Khan et al.).

#include <cmath>
#include <iostream>

#include "src/congest/congest.hpp"
#include "src/frt/frt_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv,  // the chain and the satellite: n >= 2
                {Flag::integer("n", 400, 2, 1'000'000), Flag::seed(17)});
  Rng rng(cli.seed());
  const auto n = static_cast<Vertex>(cli.get_int("n"));

  // A long chain of unit links plus a satellite uplink: every vertex can
  // reach every other in 2 hops (via the expensive satellite), but all
  // *shortest* paths crawl along the chain — SPD = n−1, D(G) = 2.
  auto edges = make_path(n - 1).edge_list();
  for (Vertex v = 0; v + 1 < n; ++v) {
    edges.push_back(WeightedEdge{v, static_cast<Vertex>(n - 1), 1e6});
  }
  const Graph g = Graph::from_edges(n, std::move(edges));
  std::cout << "network: " << n << " nodes, " << g.num_edges()
            << " links (chain + satellite)\n";

  const auto order = VertexOrder::random(n, rng);
  const auto khan = congest_frt_khan(g, order);
  std::cout << "\nKhan et al. (direct iteration, Section 8.1):\n"
            << "  " << khan.le.iterations << " MBF iterations, "
            << khan.rounds << " Congest rounds\n";

  SkeletonOptions opts;
  opts.size_constant = 0.15;
  const auto sk = congest_frt_skeleton(g, opts, rng);
  std::cout << "skeleton algorithm (Section 8.3):\n"
            << "  |S| = " << sk.run.skeleton_size << ", spanner edges = "
            << sk.run.skeleton_spanner_edges << "\n"
            << "  rounds: " << sk.run.rounds << " (setup "
            << sk.run.rounds_setup << " + iterations "
            << sk.run.rounds_iterations << ")\n"
            << "  embedding stretch factor: " << sk.run.embedding_stretch
            << " (times the O(log n) FRT stretch)\n";
  std::cout << "\nspeedup: " << static_cast<double>(khan.rounds) /
                                   static_cast<double>(sk.run.rounds)
            << "x fewer rounds (sqrt(n) = "
            << std::sqrt(static_cast<double>(n)) << ")\n";

  // Both round counts come with usable LE lists — build one tree.
  const auto tree = FrtTree::build(sk.run.le.lists, sk.order, 1.4,
                                   sk.virtual_graph.min_edge_weight());
  std::cout << "\nFRT tree from the skeleton run: " << tree.num_nodes()
            << " nodes, " << tree.num_levels() << " levels\n";
  return 0;
}
