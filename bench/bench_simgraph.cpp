// E1 + E2 — the simulated graph H (Section 4, Theorem 4.5).
//
// Claim E1: SPD(H) ∈ O(log² n) w.h.p. even when SPD(G) = Θ(n).
// Claim E2: dist_G ≤ dist_H ≤ (1+ε̂)^{Λ+1}·dist_G (Eq. 4.14/4.16).
//
// For every family/n we report SPD(G), SPD(H) (max over sampled sources),
// Λ, and the measured max/avg distortion dist_H/dist_G over sampled pairs
// for several ε̂.

#include <algorithm>
#include <cmath>

#include "bench/bench_common.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/hopset/hopset.hpp"
#include "src/parallel/parallel.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "tests/support/reference/simulated_graph.hpp"

namespace pmte::bench {
namespace {

unsigned sampled_spd(const Graph& g, std::size_t sources, Rng& rng) {
  std::vector<Vertex> srcs;
  if (sources >= g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) srcs.push_back(v);
  } else {
    for (std::size_t i = 0; i < sources; ++i) {
      srcs.push_back(static_cast<Vertex>(rng.below(g.num_vertices())));
    }
  }
  std::vector<unsigned> per(srcs.size(), 0);
  parallel_for(srcs.size(), [&](std::size_t i) {
    const auto hops = min_hops_on_shortest_paths(g, srcs[i]).hops;
    unsigned w = 0;
    for (unsigned h : hops) {
      if (h != ~0U) w = std::max(w, h);
    }
    per[i] = w;
  });
  unsigned worst = 0;
  for (unsigned w : per) worst = std::max(worst, w);
  return worst;
}

void run(const Cli& cli) {
  print_header("E1: SPD(H) vs SPD(G)",
               "Theorem 4.5 — SPD(H) in O(log^2 n) w.h.p. while SPD(G) can "
               "be Theta(n)");
  const std::vector<Vertex> sizes =
      quick(cli) ? std::vector<Vertex>{128, 256}
                 : std::vector<Vertex>{128, 256, 512, 1024};
  Rng rng(cli.seed());

  Table t({"family", "n", "SPD(G)", "SPD(H)", "Lambda", "log2^2(n)",
           "hopset edges", "d"});
  Table d({"family", "n", "eps", "max dist_H/dist_G", "avg dist_H/dist_G",
           "bound (1+eps)^(L+1)"});
  for (const auto* family : {"path", "cycle", "caterpillar"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      const unsigned spd_g = sampled_spd(g, 24, rng);
      const double log2n = std::log2(static_cast<double>(g.num_vertices()));

      const auto hopset = build_hub_hopset(g, {}, rng);
      for (const double eps : {1.0 / std::ceil(log2n), 0.05, 0.1}) {
        auto h = build_simulated_graph(g, hopset, eps, rng);
        const auto mat = materialize(h, false);
        if (eps == 0.05) {
          const unsigned spd_h = sampled_spd(mat, 16, rng);
          t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                     cell(std::size_t{spd_g}), cell(std::size_t{spd_h}),
                     cell(std::size_t{h.max_level()}), cell(log2n * log2n),
                     cell(hopset.edges.size()), cell(std::size_t{hopset.d})});
        }
        RunningStats ratio;
        for (int s = 0; s < 8; ++s) {
          const auto src = static_cast<Vertex>(rng.below(g.num_vertices()));
          const auto dg = dijkstra(g, src).dist;
          const auto dh = dijkstra(mat, src).dist;
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            if (v != src && is_finite(dg[v]) && dg[v] > 0) {
              ratio.add(dh[v] / dg[v]);
            }
          }
        }
        const double bound =
            std::pow(1.0 + eps, static_cast<double>(h.max_level()) + 1);
        d.add_row({inst.name, cell(std::size_t{g.num_vertices()}), cell(eps),
                   cell(ratio.max()), cell(ratio.mean()), cell(bound)});
      }
    }
  }
  t.print();
  print_header("E2: distance distortion of H",
               "Equation (4.14): 1 <= dist_H/dist_G <= (1+eps)^(Lambda+1)");
  d.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  const pmte::Cli cli(argc, argv);
  pmte::bench::run(cli);
  return 0;
}
