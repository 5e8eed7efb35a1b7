// E15 — LE-list distance sketches (extension application; Cohen [12],
// Cohen–Kaplan [14] lineage).
//
// Claim shape: sketches of T·O(log n) entries per vertex answer distance
// queries with small multiplicative overestimation that improves with T.

#include <cmath>
#include <utility>

#include "bench/bench_common.hpp"
#include "src/apps/distance_sketches.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/workloads.hpp"

namespace pmte::bench {
namespace {

/// The pre-serving sketch query path, counters included: per (pair, tree),
/// find the LCA by climbing both leaves' ancestor rows in lockstep (2 node
/// visits per level climbed) and read the tree's LCA-level distance table
/// — the same doubles the flat index serves, so the result hash must equal
/// the EnsembleSketches scenario's.
Weight tree_climb_min(const std::vector<FrtTree>& trees, Vertex u, Vertex v,
                      std::uint64_t* node_visits) {
  Weight best = inf_weight();
  for (const auto& t : trees) {
    const auto a = t.row(u);
    const auto b = t.row(v);
    unsigned level = 0;
    while (a[level] != b[level]) {
      ++level;
      *node_visits += 2;
    }
    best = std::min(best, t.distance_at_lca_level(level));
  }
  return best;
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  const std::uint64_t master = 4301;
  const std::size_t k = 4;
  auto inst = make_instance("gnm", 256, master);

  // The k trees of the ensemble, re-sampled the way FrtEnsemble::build
  // seeds its direct pipeline (stream 1+t of the master seed), so the
  // climbing baseline folds the exact same per-tree distances.
  std::vector<FrtTree> trees;
  for (std::size_t t = 0; t < k; ++t) {
    Rng rng(split_seed(master, 1 + t));
    trees.push_back(sample_frt_direct(inst.graph, rng).tree);
  }
  serve::EnsembleOptions eopts;
  eopts.trees = k;
  eopts.pipeline = serve::EnsemblePipeline::direct;
  auto sk = EnsembleSketches::from_ensemble(serve::FrtEnsemble::build(
      inst.graph, master, eopts));

  serve::WorkloadOptions wopts;
  wopts.pairs = 100000;
  Rng urng(4302);
  const auto uniform = serve::make_workload(
      inst.graph, serve::WorkloadKind::uniform, wopts, urng);

  {
    std::uint64_t node_visits = 0;
    std::vector<Weight> out;
    out.reserve(uniform.size());
    for (const auto& [u, v] : uniform) {
      out.push_back(u == v ? 0.0
                           : tree_climb_min(trees, u, v, &node_visits));
    }
    scenarios.push_back(CounterScenario{
        "sketches_tree_uniform_gnm_256",
        {{"queries", uniform.size()},
         {"tree_node_visits", node_visits},
         {"result_hash32", result_hash32(out)}}});
  }
  {
    std::vector<Weight> out;
    const auto st = sk.query_batch(uniform, out);
    scenarios.push_back(
        CounterScenario{"sketches_flat_uniform_gnm_256",
                        {{"queries", st.pairs},
                         {"tree_node_visits", 0},
                         {"tree_lookups", st.tree_lookups},
                         {"lca_probes", st.lca_probes},
                         {"result_hash32", result_hash32(out)}}});
  }

  // Zipf traffic with and without the hot-pair cache: identical hashes,
  // the cached run computes only the distinct hot pairs.
  Rng zrng(4303);
  const auto zipf = serve::make_workload(inst.graph,
                                         serve::WorkloadKind::zipf, wopts,
                                         zrng);
  {
    std::vector<Weight> out;
    const auto st = sk.query_batch(zipf, out);
    scenarios.push_back(
        CounterScenario{"sketches_flat_zipf_gnm_256",
                        {{"queries", st.pairs},
                         {"tree_lookups", st.tree_lookups},
                         {"lca_probes", st.lca_probes},
                         {"result_hash32", result_hash32(out)}}});
  }
  {
    sk.enable_cache(1 << 15);
    std::vector<Weight> out;
    const auto st = sk.query_batch(zipf, out);
    sk.enable_cache(0);
    scenarios.push_back(
        CounterScenario{"sketches_flat_zipf_cached_gnm_256",
                        {{"queries", st.pairs},
                         {"tree_lookups", st.tree_lookups},
                         {"lca_probes", st.lca_probes},
                         {"cache_hits", st.cache_hits},
                         {"cache_misses", st.cache_misses},
                         {"result_hash32", result_hash32(out)}}});
  }
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header("E15: distance sketches",
               "LE lists as distance labels: T x O(log n) entries/vertex, "
               "upper-bound estimates tightening with T");
  Rng rng(args.seed);
  const std::vector<Vertex> sizes = args.small
                                        ? std::vector<Vertex>{256}
                                        : std::vector<Vertex>{256, 1024};
  Table t({"family", "n", "T", "entries/vertex", "avg est/dist",
           "p99 est/dist", "max est/dist", "build [ms]"});
  for (const auto* family : {"gnm", "grid", "geometric"}) {
    for (const Vertex n : sizes) {
      auto inst = make_instance(family, n, rng());
      const auto& g = inst.graph;
      // Exact distances from sampled sources for evaluation.
      std::vector<Vertex> sources;
      for (int i = 0; i < 12; ++i) {
        sources.push_back(static_cast<Vertex>(rng.below(g.num_vertices())));
      }
      std::vector<std::vector<Weight>> exact;
      exact.reserve(sources.size());
      for (const Vertex s : sources) exact.push_back(dijkstra(g, s).dist);

      for (const std::size_t T : {1U, 4U, 16U}) {
        const Timer timer;
        const auto sk = DistanceSketches::build(g, T, rng);
        const double ms = timer.millis();
        std::vector<double> ratios;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          for (Vertex v = 0; v < g.num_vertices();
               v += std::max<Vertex>(1, g.num_vertices() / 100)) {
            if (v == sources[i] || !is_finite(exact[i][v]) ||
                exact[i][v] <= 0) {
              continue;
            }
            ratios.push_back(sk.query(sources[i], v) / exact[i][v]);
          }
        }
        const auto s = summarize(std::move(ratios));
        t.add_row({inst.name, cell(std::size_t{g.num_vertices()}), cell(T),
                   cell(sk.average_entries_per_vertex()), cell(s.mean),
                   cell(s.p99), cell(s.max), cell(ms)});
      }
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
