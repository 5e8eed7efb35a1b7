// Quickstart: sample a metric tree embedding of a weighted graph and
// inspect its quality.
//
//   ./quickstart [--n=400] [--seed=42]
//
// Walks through the library's main entry points: build a graph, sample an
// FRT tree with the paper's oracle pipeline (hop set → simulated graph H →
// LE lists → tree), and measure the embedding's stretch.

#include <cmath>
#include <iostream>

#include "src/frt/pipelines.hpp"
#include "src/frt/stretch.hpp"
#include "src/graph/generators.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "seed"});
  Rng rng(cli.seed());
  const auto n = static_cast<Vertex>(cli.get_int("n", 400));

  // A sparse random weighted graph; any connected pmte::Graph works.
  const Graph g = make_gnm(n, 3 * static_cast<std::size_t>(n), {1.0, 10.0},
                           rng);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " weights in [" << g.min_edge_weight() << ", "
            << g.max_edge_weight() << "]\n";

  // One call samples a tree from the FRT distribution via the oracle
  // pipeline (Theorem 7.9): expected stretch O(log n), polylog iterations.
  const FrtSample sample = sample_frt_oracle(g, rng);
  std::cout << "sampled FRT tree: " << sample.tree.num_nodes() << " nodes, "
            << sample.tree.num_levels() << " levels, beta=" << sample.beta
            << "\n";
  std::cout << "pipeline: " << sample.iterations << " H-iterations ("
            << sample.base_iterations << " iterations on G'), "
            << sample.hopset_edges << " hop-set edges, longest LE list "
            << sample.max_list_length << "\n";

  // Tree distances dominate graph distances; expected stretch is O(log n).
  const auto pairs = sample_pairs(g, 16, 300, rng);
  std::vector<FrtTree> trees;
  trees.push_back(sample.tree);
  for (int i = 0; i < 7; ++i) {
    trees.push_back(sample_frt_oracle(g, rng).tree);
  }
  const auto rep = measure_stretch(pairs, trees);
  std::cout << "over " << rep.pairs << " vertex pairs and " << rep.trees
            << " sampled trees:\n"
            << "  avg expected stretch = " << rep.avg_expected_stretch
            << "  (log2 n = " << std::log2(static_cast<double>(n)) << ")\n"
            << "  max expected stretch = " << rep.max_expected_stretch << "\n"
            << "  min single ratio     = " << rep.min_single_ratio
            << "  (>= 1: tree distances dominate)\n";
  return 0;
}
