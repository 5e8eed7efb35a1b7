// E3 — LE-list lengths (Lemma 7.6).
//
// Claim: under a uniformly random vertex order every LE list has length
// O(log n) w.h.p. (expected length ≈ H_n ≈ ln n).  We sweep families and
// sizes and report mean/max list length against ln n, plus the runtime of
// the sequential baseline (Cohen/Mendel–Schwob style).
//
// `--counters` instead emits deterministic WorkDepth scenarios for the CI
// bench gate: direct fixpoint iteration and the level-reusing oracle
// pipeline on the 2048-path / 45×45-grid (see bench_common.hpp).

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/frt/le_lists.hpp"
#include "src/frt/pipelines.hpp"
#include "src/parallel/counters.hpp"

namespace pmte::bench {
namespace {

CounterScenario iteration_scenario(const std::string& name, const Graph& g,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  WorkDepth::reset();
  const WorkDepthScope scope;
  const auto le = le_lists_iteration(g, order);
  return CounterScenario{name,
                         {{"relaxations", scope.relaxations_delta()},
                          {"edges_touched", scope.edges_touched_delta()},
                          {"work", scope.work_delta()},
                          {"depth", scope.depth_delta()},
                          {"iterations", le.iterations}}};
}

CounterScenario oracle_scenario(const std::string& name, const Graph& g,
                                std::uint64_t seed) {
  Rng rng(seed);
  const auto hopset = build_hub_hopset(g, {}, rng);
  const auto h = build_simulated_graph(
      g, hopset, resolve_eps_hat(0.0, g.num_vertices()), rng);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  WorkDepth::reset();
  const WorkDepthScope scope;
  const auto le = le_lists_oracle(h, order);
  return CounterScenario{name,
                         {{"relaxations", scope.relaxations_delta()},
                          {"edges_touched", scope.edges_touched_delta()},
                          {"work", scope.work_delta()},
                          {"depth", scope.depth_delta()},
                          {"iterations", le.iterations},
                          {"base_iterations", le.base_iterations},
                          {"levels_skipped", le.levels_skipped},
                          {"levels_warm", le.levels_warm},
                          {"levels_full", le.levels_full}}};
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  scenarios.push_back(
      iteration_scenario("le_iteration_path_2048", make_path(2048), 1001));
  scenarios.push_back(iteration_scenario(
      "le_iteration_grid_2025", make_grid(45, 45, {1.0, 2.0}, Rng(42)), 1002));
  scenarios.push_back(
      oracle_scenario("le_oracle_path_2048", make_path(2048), 1003));
  scenarios.push_back(oracle_scenario(
      "le_oracle_grid_2025", make_grid(45, 45, {1.0, 2.0}, Rng(42)), 1004));
  scenarios.push_back(
      oracle_scenario("le_oracle_path_512", make_path(512), 1005));
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header("E3: LE-list length",
               "Lemma 7.6 — |LE list| in O(log n) w.h.p.; expected ~ ln n; "
               "plus the frontier-driven MBF iteration vs the sequential "
               "baseline");
  const std::vector<Vertex> sizes =
      args.small ? std::vector<Vertex>{256, 1024}
                 : std::vector<Vertex>{256, 1024, 4096, 16384};
  Rng rng(args.seed);
  Table t({"family", "n", "ln(n)", "avg |list|", "p99 |list|", "max |list|",
           "seq time [ms]", "iter time [ms]", "iter relax", "iter == seq"});
  for (const auto* family : {"gnm", "grid", "path", "geometric"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      const auto order = VertexOrder::random(g.num_vertices(), rng);
      const Timer timer;
      const auto le = le_lists_sequential(g, order);
      const double ms = timer.millis();
      // The same lists via the frontier-driven engine (Khan-style
      // fixpoint iteration, Section 8.1) with its relaxation counter.
      const WorkDepthScope scope;
      const Timer it_timer;
      const auto le_it = le_lists_iteration(g, order);
      const double it_ms = it_timer.millis();
      std::vector<double> lens;
      lens.reserve(le.lists.size());
      for (const auto& l : le.lists) {
        lens.push_back(static_cast<double>(l.size()));
      }
      const auto s = summarize(std::move(lens));
      t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                 cell(std::log(static_cast<double>(g.num_vertices()))),
                 cell(s.mean), cell(s.p99), cell(s.max), cell(ms),
                 cell(it_ms),
                 cell(static_cast<std::size_t>(scope.relaxations_delta())),
                 cell(le_it.lists == le.lists ? "yes" : "NO")});
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
