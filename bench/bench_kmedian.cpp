// E9 — k-median quality (Section 9, Theorem 9.2).
//
// Claim: the FRT-based algorithm achieves an expected O(log k)
// approximation on graph inputs.  We report its cost relative to a local
// search baseline (≈5-approximation) and to random centers.


#include "bench/bench_common.hpp"
#include "src/apps/kmedian.hpp"

namespace pmte::bench {
namespace {

/// One gated scenario: run the full pipeline and report the tree-walk
/// counters plus a 32-bit hash of the solution (cost bits + centers).
CounterScenario kmedian_scenario(const std::string& name,
                                 const std::string& family, Vertex n,
                                 std::size_t k, std::uint64_t seed) {
  auto inst = make_instance(family, n, seed);
  Rng rng(seed);
  KMedianOptions opts;
  opts.trees = 3;
  const auto r = kmedian_frt(inst.graph, k, opts, rng);
  std::uint64_t hash = fnv1a_fold_f64(kFnv1aInit, r.cost);
  hash = fnv1a_fold_f64(hash, r.tree_cost);
  for (const Vertex c : r.centers) hash = fnv1a_fold(hash, c);
  return CounterScenario{
      name,
      {{"tree_lookups", r.counters.tree_lookups},
       {"lca_probes", r.counters.lca_probes},
       {"result_hash32", fold32(hash)}}};
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  scenarios.push_back(
      kmedian_scenario("kmedian_flat_grid_256", "grid", 256, 10, 4101));
  scenarios.push_back(
      kmedian_scenario("kmedian_flat_gnm_256", "gnm", 256, 8, 4102));
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header("E9: k-median",
               "Theorem 9.2 — expected O(log k)-approximation with "
               "~O(m^(1+eps)+k^3) work");
  Rng rng(args.seed);
  const Vertex n = args.small ? 256 : 900;
  Table t({"family", "n", "k", "FRT cost", "local-search cost",
           "random cost", "FRT/LS", "|Q|", "FRT time [ms]"});

  for (const auto* family : {"grid", "geometric"}) {
    auto inst = make_instance(family, n, rng());
    const auto& g = inst.graph;
    for (const std::size_t k : {5U, 10U, 20U}) {
      KMedianOptions opts;
      opts.trees = 4;
      const Timer timer;
      const auto frt = kmedian_frt(g, k, opts, rng);
      const double frt_ms = timer.millis();
      const auto ls = kmedian_local_search(g, k, 8, rng);
      const auto random = kmedian_random(g, k, rng);
      t.add_row({inst.name, cell(std::size_t{g.num_vertices()}),
                 cell(k), cell(frt.cost), cell(ls.cost), cell(random.cost),
                 cell(frt.cost / ls.cost), cell(frt.candidates),
                 cell(frt_ms)});
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
