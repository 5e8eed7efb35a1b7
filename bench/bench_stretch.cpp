// E5 — expected stretch of the sampled embeddings (Section 7.1, [19]).
//
// Claims: E[stretch] ∈ O(log n) for FRT sampling, and the oracle pipeline
// inflates the stretch only by (1+o(1)) relative to exact-metric sampling
// (Corollary 7.10).  We sample T trees per pipeline and report the mean and
// max (over pairs) of the empirical expected stretch, plus the dominance
// ratio min dist_T/dist_G (must stay ≥ 1).

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/frt/pipelines.hpp"
#include "src/frt/stretch.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte::bench {
namespace {

void run(const Cli& cli) {
  print_header("E5: expected stretch",
               "[19] via Section 7 — expected stretch O(log n); oracle "
               "pipeline within (1+o(1)) of the exact-metric pipeline");
  const std::vector<Vertex> sizes =
      quick(cli) ? std::vector<Vertex>{64, 128}
                 : std::vector<Vertex>{64, 128, 256};
  const std::size_t trees = quick(cli) ? 8 : 12;
  Rng rng(cli.seed());
  Table t({"family", "n", "log2(n)", "pipeline", "avg E[stretch]",
           "max E[stretch]", "max ratio", "min ratio"});

  for (const auto* family : {"gnm", "grid", "cycle", "geometric"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      const auto pairs = sample_pairs(g, 24, 600, rng);
      const double log2n = std::log2(static_cast<double>(g.num_vertices()));

      std::vector<FrtTree> direct, oracle, metric;
      const auto hopset = build_hub_hopset(g, {}, rng);
      const auto h = build_simulated_graph(
          g, hopset, resolve_eps_hat(0.0, g.num_vertices()), rng);
      const auto apsp = exact_apsp(g);
      for (std::size_t i = 0; i < trees; ++i) {
        direct.push_back(sample_frt_direct(g, rng).tree);
        oracle.push_back(sample_frt_oracle_on(h, rng).tree);
        metric.push_back(sample_frt_metric(apsp, g.num_vertices(),
                                           g.min_edge_weight(), rng)
                             .tree);
      }
      auto report = [&](const char* name, const std::vector<FrtTree>& ts) {
        const auto rep = measure_stretch(pairs, ts);
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                   cell(log2n), name, cell(rep.avg_expected_stretch),
                   cell(rep.max_expected_stretch), cell(rep.max_single_ratio),
                   cell(rep.min_single_ratio)});
      };
      report("P-G direct", direct);
      report("P-H oracle", oracle);
      report("P-M metric", metric);
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
