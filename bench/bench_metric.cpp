// E6 — approximate metric construction (Section 6).
//
// Claims: Theorem 6.1 — a (1+o(1))-approximate metric via APSP on H;
// Theorem 6.2 — an O(1)-approximate metric after Baswana–Sen
// sparsification, cheaper on dense graphs.  We compare stretch, work and
// time against the exact APSP baseline (n Dijkstras).

#include "bench/bench_common.hpp"
#include "src/metric/approx_metric.hpp"
#include "src/parallel/counters.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte::bench {
namespace {

void run(const Cli& cli) {
  print_header("E6: approximate metrics",
               "Theorem 6.1 — (1+o(1))-approximate metric; Theorem 6.2 — "
               "O(1)-approximate after spanner sparsification");
  // APSP states are Θ(n) entries per vertex (no filtering is possible —
  // the answer itself is quadratic), so sizes stay small; the work column
  // carries the asymptotic comparison.
  const std::vector<Vertex> sizes = quick(cli)
                                        ? std::vector<Vertex>{96}
                                        : std::vector<Vertex>{96, 192};
  Rng rng(cli.seed());
  Table t({"family", "n", "method", "stretch", "H-iters", "work [ops]",
           "time [ms]", "aux edges"});

  for (const auto* family : {"gnm", "grid"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      std::vector<Weight> exact;
      double exact_ms = 0;
      {
        const Timer timer;
        exact = exact_apsp(g);
        exact_ms = timer.millis();
      }
      t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                 "exact (n Dijkstra)", cell(1.0), cell(std::size_t{0}),
                 cell(static_cast<double>(g.num_edges()) * g.num_vertices()),
                 cell(exact_ms), cell(std::size_t{0})});

      ApproxMetricOptions opts;
      opts.eps_hat = 0.05;
      {
        const auto r = approximate_metric(g, opts, rng);
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                   "Thm 6.1 (oracle APSP)",
                   cell(metric_stretch(r.dist, exact)),
                   cell(std::size_t{r.h_iterations}),
                   cell(static_cast<double>(r.work)), cell(r.seconds * 1e3),
                   cell(r.hopset_edges)});
      }
      for (const unsigned k : {2U, 3U}) {
        const auto r = approximate_metric_spanner(g, k, opts, rng);
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                   "Thm 6.2 (spanner k=" + std::to_string(k) + ")",
                   cell(metric_stretch(r.dist, exact)),
                   cell(std::size_t{r.h_iterations}),
                   cell(static_cast<double>(r.work)), cell(r.seconds * 1e3),
                   cell(r.spanner_edges)});
      }
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
