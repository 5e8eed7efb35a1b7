// E8 — Congest round complexity (Section 8, Theorem 8.1).
//
// Claims: Khan et al. take O(SPD(G)·log n) rounds; the skeleton-based
// algorithm takes Õ(√n + D(G)).  The crossover appears on graphs with
// SPD ≫ √n but small hop diameter.

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/congest/congest.hpp"
#include "src/parallel/counters.hpp"

namespace pmte::bench {
namespace {

/// Long unit path plus a heavy star centre: SPD = n−1, D(G) = 2.
Graph path_with_star(Vertex n) {
  auto edges = make_path(n - 1).edge_list();
  for (Vertex v = 0; v + 1 < n; ++v) {
    edges.push_back(WeightedEdge{v, static_cast<Vertex>(n - 1), 1e6});
  }
  return Graph::from_edges(n, std::move(edges));
}

void run(const Cli& cli) {
  print_header("E8: Congest rounds",
               "Theorem 8.1 — skeleton algorithm ~O(sqrt(n)+D) rounds vs "
               "O(SPD log n) for direct iteration (Khan et al.)");
  const std::vector<Vertex> sizes =
      quick(cli) ? std::vector<Vertex>{200, 400}
                 : std::vector<Vertex>{200, 400, 800, 1600};
  Rng rng(cli.seed());
  Table t({"graph", "n", "SPD-ish", "sqrt(n)", "khan rounds", "khan relax",
           "skeleton rounds", "skel setup", "skel iters", "|S|",
           "spanner |E|"});

  auto run_case = [&](const std::string& name, const Graph& g) {
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    const WorkDepthScope khan_scope;
    const auto khan = congest_frt_khan(g, order);
    const auto khan_relax = khan_scope.relaxations_delta();
    SkeletonOptions opts;
    opts.size_constant = 0.15;
    const auto sk = congest_frt_skeleton(g, opts, rng);
    t.add_row({name, cell(std::size_t{g.num_vertices()}),
               cell(std::size_t{khan.le.iterations}),
               cell(std::sqrt(static_cast<double>(g.num_vertices()))),
               cell(static_cast<double>(khan.rounds)),
               cell(static_cast<std::size_t>(khan_relax)),
               cell(static_cast<double>(sk.run.rounds)),
               cell(static_cast<double>(sk.run.rounds_setup)),
               cell(static_cast<double>(sk.run.rounds_iterations)),
               cell(sk.run.skeleton_size),
               cell(sk.run.skeleton_spanner_edges)});
  };

  for (const Vertex n : sizes) {
    run_case("path+star", path_with_star(n));
  }
  for (const Vertex n : sizes) {
    auto inst = make_instance("cliquechain", n, rng());
    run_case(inst.name, inst.graph);
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  const pmte::Cli cli(argc, argv);
  pmte::bench::run(cli);
  return 0;
}
