// E12 — hop-set quality and cost (Equation (1.3); the hub hop set that
// stands in for Cohen's, src/hopset/hopset.hpp).
//
// Claim: the hub hop set satisfies dist^d(v,w,G') ≤ (1+ε̂)·dist(v,w,G)
// with ε̂ = 0 w.h.p.; size/hop-bound trade-off is controlled by the
// sampling window.

#include "bench/bench_common.hpp"
#include "src/hopset/hopset.hpp"
#include "tests/support/reference/hopset.hpp"

namespace pmte::bench {
namespace {

void run(const Cli& cli) {
  print_header("E12: hop sets",
               "Equation (1.3) — dist^d(v,w,G') <= (1+eps) dist(v,w,G); hub "
               "substitution is exact (eps = 0) w.h.p.");
  Rng rng(cli.seed());
  const std::vector<Vertex> sizes =
      quick(cli) ? std::vector<Vertex>{256} : std::vector<Vertex>{256, 1024};
  Table t({"family", "n", "window", "d", "hubs", "added edges",
           "measured stretch", "build [ms]"});

  for (const auto* family : {"path", "grid", "gnm"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      for (const unsigned window :
           {0U, static_cast<unsigned>(n) / 16, static_cast<unsigned>(n) / 4}) {
        HubHopSetParams params;
        params.window = window;
        const Timer timer;
        const auto hs = build_hub_hopset(g, params, rng);
        const double ms = timer.millis();
        const double stretch = measure_hopset_stretch(g, hs, 16, rng);
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                   cell(std::size_t{window}), cell(std::size_t{hs.d}),
                   cell(hs.num_hubs), cell(hs.edges.size()), cell(stretch),
                   cell(ms)});
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
