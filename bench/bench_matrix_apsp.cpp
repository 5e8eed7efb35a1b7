// E16 — the classical algebraic APSP baseline (Section 1.1).
//
// Claim shape: squaring the min-plus adjacency matrix reaches the distance
// fixpoint in ⌈log₂ SPD(G)⌉ rounds (polylog depth) at Θ(n³ log n) work —
// work-competitive with n Dijkstras only on dense graphs, and dominated by
// the paper's oracle machinery on sparse ones.

#include "bench/bench_common.hpp"
#include "tests/support/reference/matrix_apsp.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte::bench {
namespace {

void run(const Cli& cli) {
  print_header("E16: algebraic APSP baseline",
               "Section 1.1 — A <- A^2 fixpoint: ceil(log2 SPD) rounds, "
               "Theta(n^3 log n) work");
  Rng rng(cli.seed());
  const std::vector<Vertex> sizes = quick(cli)
                                        ? std::vector<Vertex>{64, 128}
                                        : std::vector<Vertex>{64, 128, 256};
  Table t({"family", "n", "m", "squarings", "matrix time [ms]",
           "n Dijkstra time [ms]", "n^3 ops", "n m log n ops"});
  for (const auto* family : {"path", "gnm", "cliquechain"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      const auto mr = matrix_apsp(g);
      const Timer timer;
      const auto ref = exact_apsp(g);
      const double dijkstra_ms = timer.millis();
      (void)ref;
      const double nn = static_cast<double>(g.num_vertices());
      const double mm = static_cast<double>(g.num_edges());
      t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                 cell(g.num_edges()), cell(std::size_t{mr.squarings}),
                 cell(mr.seconds * 1e3), cell(dijkstra_ms),
                 cell(nn * nn * nn), cell(nn * mm * std::log2(nn))});
    }
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
