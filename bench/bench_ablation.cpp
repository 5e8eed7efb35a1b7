// E17 — ablations of three design choices:
//   (a) FRT edge-weight rule: dominating (ours) vs khan (paper's constant);
//   (b) penalty parameter ε̂: distortion of H and resulting stretch;
//   (c) hop-set window: oracle iteration count vs hop-set size.

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/frt/pipelines.hpp"
#include "src/frt/stretch.hpp"

namespace pmte::bench {
namespace {

void weight_rule_ablation(const Cli& cli, Rng& rng) {
  print_header("E17a: FRT weight rule",
               "dominating rule doubles distances but guarantees "
               "dist_T >= dist_G; khan rule can undershoot");
  const Vertex n = quick(cli) ? 96 : 192;
  const auto g = make_gnm(n, 3 * static_cast<std::size_t>(n), {1.0, 5.0},
                          rng);
  const auto pairs = sample_pairs(g, 24, 400, rng);
  Table t({"rule", "avg E[stretch]", "max E[stretch]", "min ratio",
           "dominance violations"});
  for (const auto rule : {FrtWeightRule::dominating, FrtWeightRule::khan}) {
    FrtOptions opts;
    opts.rule = rule;
    std::vector<FrtTree> trees;
    for (int i = 0; i < 12; ++i) {
      trees.push_back(sample_frt_direct(g, rng, opts).tree);
    }
    const auto rep = measure_stretch(pairs, trees);
    std::size_t violations = 0;
    for (std::size_t p = 0; p < pairs.u.size(); ++p) {
      for (const auto& tree : trees) {
        if (tree.distance(pairs.u[p], pairs.v[p]) < pairs.dist[p] * (1 - 1e-9)) {
          ++violations;
        }
      }
    }
    t.add_row({rule == FrtWeightRule::dominating ? "dominating" : "khan",
               cell(rep.avg_expected_stretch), cell(rep.max_expected_stretch),
               cell(rep.min_single_ratio), cell(violations)});
  }
  t.print();
}

void eps_hat_ablation(const Cli& cli, Rng& rng) {
  print_header("E17b: penalty parameter",
               "eps controls H's distortion (1+eps)^(Lambda+1); the auto "
               "default 1/ceil(log2 n)^2 keeps it 1+o(1)");
  const Vertex n = quick(cli) ? 96 : 192;
  const auto g = make_gnm(n, 3 * static_cast<std::size_t>(n), {1.0, 4.0},
                          rng);
  const auto pairs = sample_pairs(g, 16, 300, rng);
  const auto hopset = build_hub_hopset(g, {}, rng);
  Table t({"eps", "avg E[stretch]", "H-iterations (mean)",
           "distortion bound"});
  for (const double eps :
       {resolve_eps_hat(0.0, n), 0.05, 0.2, 0.5}) {
    auto h = build_simulated_graph(g, hopset, eps, rng);
    std::vector<FrtTree> trees;
    double iters = 0;
    for (int i = 0; i < 10; ++i) {
      auto s = sample_frt_oracle_on(h, rng);
      iters += s.iterations;
      trees.push_back(std::move(s.tree));
    }
    const auto rep = measure_stretch(pairs, trees);
    t.add_row({cell(eps), cell(rep.avg_expected_stretch),
               cell(iters / 10.0),
               cell(std::pow(1.0 + eps,
                             static_cast<double>(h.max_level()) + 1))});
  }
  t.print();
}

void window_ablation(const Cli& cli, Rng& rng) {
  print_header("E17c: hop-set window",
               "smaller windows buy fewer G'-iterations per H-iteration "
               "with more shortcut edges");
  const Vertex n = quick(cli) ? 128 : 256;
  const auto g = make_path(n, {1.0, 2.0}, rng);
  Table t({"window", "d", "hopset edges", "H-iterations", "G'-iterations",
           "time [ms]"});
  for (const unsigned window : {8U, 16U, 32U, 64U, 0U}) {
    FrtOptions opts;
    opts.hopset.window = window;
    auto s = sample_frt_oracle(g, rng, opts);
    t.add_row({cell(std::size_t{window}),
               cell(std::size_t{window == 0 ? 0 : 2 * window}),
               cell(s.hopset_edges), cell(std::size_t{s.iterations}),
               cell(std::size_t{s.base_iterations}), cell(s.seconds * 1e3)});
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  const pmte::Cli cli(argc, argv);
  pmte::Rng rng(cli.seed());
  pmte::bench::weight_rule_ablation(cli, rng);
  pmte::bench::eps_hat_ablation(cli, rng);
  pmte::bench::window_ablation(cli, rng);
  return 0;
}
