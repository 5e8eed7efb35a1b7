// E14 — the MBF-like algorithm collection (Section 3) against classical
// baselines: sanity performance of the algebraic framework.

#include "bench/bench_common.hpp"
#include "tests/support/reference/delta_stepping.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algebras.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/mbf/engine.hpp"

namespace pmte::bench {
namespace {

void run(const Args& args) {
  print_header("E14: MBF-like algorithm collection",
               "Section 3 — one framework, many algorithms; timings vs "
               "classical baselines");
  Rng rng(args.seed);
  const Vertex n = args.small ? 512 : 2048;
  const auto g = make_gnm(n, 4 * static_cast<std::size_t>(n), {1.0, 5.0},
                          rng);
  Table t({"problem", "method", "n", "time [ms]", "result checksum"});

  auto timed = [&](const char* problem, const char* method, auto&& fn) {
    const Timer timer;
    const double checksum = fn();
    t.add_row({problem, method, cell(std::size_t{g.num_vertices()}),
               cell(timer.millis()), cell(checksum)});
  };

  timed("SSSP", "MBF-like (Ex. 3.3)", [&] {
    const auto d = mbf_sssp(g, 0);
    double s = 0;
    for (const Weight x : d) {
      if (is_finite(x)) s += x;
    }
    return s;
  });
  timed("SSSP", "Dijkstra", [&] {
    const auto d = dijkstra(g, 0).dist;
    double s = 0;
    for (const Weight x : d) {
      if (is_finite(x)) s += x;
    }
    return s;
  });
  timed("SSSP", "Delta-stepping", [&] {
    const auto d = delta_stepping(g, 0);
    double s = 0;
    for (const Weight x : d.dist) {
      if (is_finite(x)) s += x;
    }
    return s;
  });
  timed("k-SSP (k=8)", "MBF-like (Ex. 3.4)", [&] {
    const auto maps = mbf_kssp(g, 8);
    double s = 0;
    for (const auto& m : maps) s += static_cast<double>(m.size());
    return s;
  });
  timed("source detection (16 sources, k=4)", "MBF-like (Ex. 3.2)", [&] {
    std::vector<Vertex> sources;
    for (int i = 0; i < 16; ++i) {
      sources.push_back(static_cast<Vertex>(rng.below(g.num_vertices())));
    }
    const auto maps = mbf_source_detection(g, sources, g.num_vertices(), 4);
    double s = 0;
    for (const auto& m : maps) s += static_cast<double>(m.size());
    return s;
  });
  timed("forest fire (radius 8)", "MBF-like (Ex. 3.7)", [&] {
    std::vector<Vertex> burning{0, static_cast<Vertex>(n / 2)};
    const auto ff = mbf_forest_fire(g, burning, 8.0);
    double s = 0;
    for (const bool b : ff.alarmed) s += b;
    return s;
  });
  timed("SSWP", "MBF-like (Ex. 3.13)", [&] {
    const auto w = mbf_sswp(g, 0);
    double s = 0;
    for (const Weight x : w) {
      if (is_finite(x)) s += x;
    }
    return s;
  });
  timed("connectivity (h=6)", "MBF-like (Ex. 3.25)", [&] {
    std::vector<Vertex> sources{0};
    const auto reach = mbf_reachability(g, sources, 6);
    double s = 0;
    for (const auto& r : reach) s += static_cast<double>(r.size());
    return s;
  });
  {
    // k-SDP runs on a smaller instance (path-set states are heavy).
    const auto small = make_gnm(64, 160, {1.0, 4.0}, rng);
    timed("k-SDP (k=2)", "MBF-like over Pmin,+ (Ex. 3.23)", [&] {
      const auto r = mbf_ksdp(small, 0, 2);
      double s = 0;
      for (const auto& ps : r) s += static_cast<double>(ps.size());
      return s;
    });
  }
  t.print();

  // Frontier vs dense engine on long-diameter families, where re-scanning
  // all 2m edges for Θ(n) rounds is maximally wasteful: the changed set is
  // a narrow wavefront, so the frontier engine relaxes asymptotically
  // fewer edges (the counters are deterministic — the same numbers gate CI
  // via bench_micro_ops --counters).
  Table f({"family", "n", "engine", "time [ms]", "relaxations",
           "edges touched", "iterations"});
  auto engine_row = [&](const Instance& inst, MbfMode mode,
                        const char* label) {
    ScalarDistanceAlgebra alg;
    std::vector<Weight> x0(inst.graph.num_vertices(), inf_weight());
    x0[0] = 0.0;
    const WorkDepthScope scope;
    const Timer timer;
    const auto r = mbf_run(inst.graph, alg, std::move(x0),
                           inst.graph.num_vertices(), 1.0, mode);
    f.add_row({inst.name, cell(std::size_t{inst.graph.num_vertices()}),
               label, cell(timer.millis()),
               cell(static_cast<std::size_t>(scope.relaxations_delta())),
               cell(static_cast<std::size_t>(scope.edges_touched_delta())),
               cell(r.iterations)});
  };
  const Vertex n_sparse = args.small ? 2048 : 8192;
  for (const char* family : {"path", "grid"}) {
    const auto inst = make_instance(family, n_sparse, 7);
    engine_row(inst, MbfMode::kDense, "dense");
    engine_row(inst, MbfMode::kAuto, "frontier");
  }
  f.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run);
}
