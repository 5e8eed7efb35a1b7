// E4 — depth/work comparison of the FRT sampling pipelines (Section 7.4).
//
// Claims: the oracle pipeline (Theorem 7.9 / Corollary 7.10) needs only
// polylog(n) top-level iterations where direct iteration pays Θ(SPD(G)),
// and its work stays subquadratic where the metric pipeline (Blelloch et
// al.) pays Ω(n²).  Columns report iteration counts (depth proxy),
// semiring operations (work proxy), relaxations, and wall time.
//
// `--counters` instead emits deterministic WorkDepth scenarios for the CI
// bench gate: full FRT sampling through the level-reusing oracle on the
// 2048-path / 45×45-grid and the 512-path, plus direct iteration on the
// 2048-path.

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/frt/pipelines.hpp"
#include "src/parallel/counters.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte::bench {
namespace {

CounterScenario frt_oracle_scenario(const std::string& name, const Graph& g,
                                    std::uint64_t seed) {
  Rng rng(seed);
  WorkDepth::reset();
  const WorkDepthScope scope;
  const auto s = sample_frt_oracle(g, rng);
  return CounterScenario{name,
                         {{"relaxations", s.relaxations},
                          {"edges_touched", s.edges_touched},
                          {"work", s.work},
                          {"depth", scope.depth_delta()},
                          {"iterations", s.iterations},
                          {"base_iterations", s.base_iterations},
                          {"levels_skipped", s.levels_skipped},
                          {"levels_warm", s.levels_warm},
                          {"levels_full", s.levels_full}}};
}

CounterScenario frt_direct_scenario(const std::string& name, const Graph& g,
                                    std::uint64_t seed) {
  Rng rng(seed);
  WorkDepth::reset();
  const WorkDepthScope scope;
  const auto s = sample_frt_direct(g, rng);
  return CounterScenario{name,
                         {{"relaxations", s.relaxations},
                          {"edges_touched", s.edges_touched},
                          {"work", s.work},
                          {"depth", scope.depth_delta()},
                          {"iterations", s.iterations}}};
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  scenarios.push_back(
      frt_oracle_scenario("frt_oracle_path_2048", make_path(2048), 2001));
  scenarios.push_back(frt_oracle_scenario(
      "frt_oracle_grid_2025", make_grid(45, 45, {1.0, 2.0}, Rng(42)), 2002));
  scenarios.push_back(
      frt_oracle_scenario("frt_oracle_path_512", make_path(512), 2003));
  scenarios.push_back(
      frt_direct_scenario("frt_direct_path_2048", make_path(2048), 2004));
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header(
      "E4: pipeline depth & work",
      "Theorem 7.9 — polylog depth, ~O(m^(1+eps)) work vs Theta(SPD) "
      "iterations (direct, Khan et al.) and Omega(n^2) work (metric)");
  // Note: P-H pays the Θ̃(√n)-depth price of the hub hop-set substitution
  // (src/hopset/hopset.hpp), so its wall-clock only wins asymptotically;
  // iteration counts carry the paper's depth claim.  Sizes are kept
  // moderate so the whole sweep finishes in minutes.
  const std::vector<Vertex> sizes =
      args.small ? std::vector<Vertex>{128, 256}
                 : std::vector<Vertex>{128, 256, 384};
  Rng rng(args.seed);
  Table t({"family", "n", "pipeline", "iterations", "G'-iterations",
           "work [ops]", "relax", "time [ms]", "max |list|"});

  auto report = [&](const Instance& inst, const char* name,
                    const FrtSample& s) {
    t.add_row({inst.name, cell(std::size_t{inst.graph.num_vertices()}), name,
               cell(std::size_t{s.iterations}),
               cell(std::size_t{s.base_iterations}),
               cell(static_cast<double>(s.work)),
               cell(static_cast<std::size_t>(s.relaxations)),
               cell(s.seconds * 1e3), cell(s.max_list_length)});
  };

  for (const auto* family : {"path", "cliquechain", "gnm"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;

      report(inst, "P-G direct", sample_frt_direct(g, rng));
      report(inst, "P-H oracle", sample_frt_oracle(g, rng));
      {
        // P-M: the Ω(n²) metric has to be produced first — its cost is
        // part of the pipeline (n Dijkstras here, a metric oracle in [10]).
        const Timer timer;
        const WorkDepthScope scope;
        const auto apsp = exact_apsp(g);
        auto s = sample_frt_metric(apsp, g.num_vertices(),
                                   g.min_edge_weight(), rng);
        s.seconds = timer.seconds();
        s.work = scope.work_delta() +
                 static_cast<std::uint64_t>(g.num_vertices()) *
                     g.num_vertices();
        report(inst, "P-M metric", s);
      }
      report(inst, "P-S sequential", sample_frt_sequential(g, rng));
    }
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run,
                                 pmte::bench::run_counters);
}
