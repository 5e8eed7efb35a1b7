// Quickstart: sample a metric tree embedding of a weighted graph and
// inspect its quality.
//
//   ./quickstart [--n=400] [--seed=42]
//
// Walks through the library's main entry points: build a graph, sample an
// FRT tree with the paper's oracle pipeline (hop set → simulated graph H →
// LE lists → tree), serve the distances of eight sampled trees as an
// ensemble, and measure their stretch against every pair's exact distance
// (n Dijkstras and n²/2 queries, so --n stops at 4096).

#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv,  // a simple graph with 3n edges needs n >= 7
                {Flag::integer("n", 400, 7, 4096), Flag::seed(42)});
  Rng rng(cli.seed());
  const auto n = static_cast<Vertex>(cli.get_int("n"));

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
  // An ensemble of 8 trees serves each pair's median (a typical tree) or
  // minimum over the trees, and both dominate too.
  std::vector<serve::FrtIndex> indices;
  indices.push_back(serve::FrtIndex::build(sample.tree));
  for (int i = 0; i < 7; ++i) {
    indices.push_back(serve::FrtIndex::build(sample_frt_oracle(g, rng).tree));
  }
  const auto ensemble = serve::FrtEnsemble::assemble(
      std::move(indices), cli.seed(), serve::FrtEnsemble::fingerprint(g));
  for (const auto policy :
       {serve::AggregatePolicy::median, serve::AggregatePolicy::min}) {
    const auto q = serve::measure_stretch_quality(g, ensemble, policy);
    std::cout << "over all " << q.pairs << " vertex pairs, the "
              << (policy == serve::AggregatePolicy::min ? "minimum"
                                                        : "median")
              << " of " << ensemble.num_trees() << " trees:\n"
              << "  mean stretch     = " << q.mean_stretch
              << "  (log2 n = " << std::log2(static_cast<double>(n)) << ")\n"
              << "  max stretch      = " << q.max_stretch << "\n"
              << "  min stretch      = " << q.min_stretch
              << "  (>= 1: tree distances dominate)\n";
  }
  return 0;
}
