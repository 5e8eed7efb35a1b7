// A lightweight "distance oracle service" built from LE-list sketches.
//
//   ./distance_oracle_service [--n=2000] [--T=8] [--seed=19]
//
// Preprocess a large sparse graph once into per-vertex sketches of
// T·O(log n) entries, then answer arbitrary point-to-point distance
// queries in microseconds without touching the graph again — the LE lists
// of Cohen [12] / Cohen–Kaplan [14] worn as distance labels, computed with
// this library's pipelines.

#include <cmath>
#include <iostream>

#include "src/apps/distance_sketches.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "src/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "T", "seed"});
  Rng rng(cli.seed(19));
  const auto n = static_cast<Vertex>(cli.get_int("n", 2000));
  const auto T = static_cast<std::size_t>(cli.get_int("T", 8));

  const Graph g =
      make_geometric(n, 2.0 / std::sqrt(static_cast<double>(n)), rng);
  std::cout << "road network: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges\n";

  Timer timer;
  const auto sketches = DistanceSketches::build(g, T, rng);
  std::cout << "preprocessing: " << T << " permutations in "
            << timer.millis() << " ms, "
            << sketches.average_entries_per_vertex()
            << " entries/vertex (ln n = "
            << std::log(static_cast<double>(n)) << ")\n";

  // Serve queries; compare against on-demand Dijkstra.
  RunningStats ratio;
  timer.reset();
  const int queries = 300;
  std::vector<std::pair<Vertex, Vertex>> qs;
  for (int i = 0; i < queries; ++i) {
    qs.emplace_back(static_cast<Vertex>(rng.below(n)),
                    static_cast<Vertex>(rng.below(n)));
  }
  double query_ms;
  {
    Timer qt;
    double sink = 0;
    for (const auto& [u, v] : qs) sink += sketches.query(u, v);
    query_ms = qt.millis();
    (void)sink;
  }
  for (const auto& [u, v] : qs) {
    if (u == v) continue;
    const auto exact = dijkstra(g, u).dist[v];
    if (is_finite(exact) && exact > 0) {
      ratio.add(sketches.query(u, v) / exact);
    }
  }
  std::cout << queries << " queries in " << query_ms << " ms ("
            << query_ms * 1000.0 / queries << " us/query)\n";
  std::cout << "estimate/exact ratio: mean " << ratio.mean() << ", max "
            << ratio.max() << " (always >= 1: estimates are upper bounds)\n";
  return 0;
}
