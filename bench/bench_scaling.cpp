// E11 — OpenMP strong scaling of one MBF-like iteration.
//
// The paper's polylog-depth claims presume ideal parallel execution of the
// propagate/aggregate/filter phases; this bench measures how the pull-based
// implementation scales with threads on one LE-list iteration and on a full
// oracle FRT sample.

#include "bench/bench_common.hpp"
#include "src/frt/le_lists.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/shortest_paths.hpp"

namespace pmte::bench {
namespace {

void run(const Args& args) {
  print_header("E11: thread scaling",
               "depth bounds presume parallel propagate/aggregate/filter; "
               "measured speedup of the OpenMP realisation");
  Rng rng(args.seed);
  const Vertex n = args.small ? 20000 : 60000;
  const auto g = make_gnm(n, 4 * static_cast<std::size_t>(n), {1.0, 4.0},
                          rng);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const int max_threads = num_threads();

  Table t({"threads", "5 LE iterations [ms]", "speedup",
           "64 Dijkstras [ms]", "speedup", "oracle FRT [ms]", "speedup"});
  double base_iter = 0.0, base_dij = 0.0, base_frt = 0.0;
  const Vertex n_frt = args.small ? 256 : 512;
  const auto g_frt = make_instance("gnm", n_frt, 123).graph;
  for (int threads = 1; threads <= max_threads; ++threads) {
    set_num_threads(threads);
    // Phase 1: the memory/allocation-bound semimodule merges, through the
    // double-buffered frontier engine (steady-state allocation-free).
    const LeListAlgebra alg;
    MbfEngine<LeListAlgebra> engine(g, alg, le_initial_state(order));
    const Timer t_iter;
    for (int i = 0; i < 5; ++i) {
      (void)engine.step();
    }
    const double iter_ms = t_iter.millis();

    // Phase 2: compute-bound source-parallel Dijkstras (hop set / APSP
    // style work).
    const Timer t_dij;
    parallel_for(
        64, [&](std::size_t s) { (void)dijkstra(g, static_cast<Vertex>(s)); },
        1);
    const double dij_ms = t_dij.millis();

    // Phase 3: an end-to-end oracle FRT sample.
    Rng frt_rng(args.seed + 17);
    const Timer t_frt;
    (void)sample_frt_oracle(g_frt, frt_rng);
    const double frt_ms = t_frt.millis();

    if (threads == 1) {
      base_iter = iter_ms;
      base_dij = dij_ms;
      base_frt = frt_ms;
    }
    t.add_row({cell(threads), cell(iter_ms), cell(base_iter / iter_ms),
               cell(dij_ms), cell(base_dij / dij_ms), cell(frt_ms),
               cell(base_frt / frt_ms)});
  }
  set_num_threads(max_threads);
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run);
}
