// E-serve — the serving layer: FRT-ensemble build cost and batched query
// throughput (src/serve/).
//
// Claims carried: FrtIndex::distance reads two LCA codes per query
// (counted exactly), ensembles amortise one hop set across k trees,
// and batch serving is embarrassingly parallel with bit-identical outputs
// at any thread count.
//
// `--counters` emits deterministic WorkDepth / serving counters for the CI
// bench gate (the fourth gated baseline, BENCH_serve.json): ensemble build
// work on fixed graphs plus per-workload query counters (queries, per-tree
// lookups, LCA probes).  result_hash32 additionally pins the served
// distances bit-for-bit (ungated, but any drift shows in the JSON diff).
// The report holds no wall time, so it is byte-identical at any thread
// count; the batch-latency percentiles are in the printed table.


#include <cstdio>
#include <fstream>

#include "bench/bench_common.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/counters.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/serve/workloads.hpp"

namespace pmte::bench {
namespace {

CounterScenario build_scenario(const std::string& name, const Graph& g,
                               std::uint64_t seed, std::size_t trees,
                               serve::EnsemblePipeline pipeline,
                               serve::FrtEnsemble* keep = nullptr) {
  WorkDepth::reset();
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = pipeline;
  auto e = serve::FrtEnsemble::build(g, seed, opts);
  const auto& st = e.build_stats();
  CounterScenario s{name,
                    {{"relaxations", st.relaxations},
                     {"edges_touched", st.edges_touched},
                     {"work", st.work},
                     {"iterations", st.iterations},
                     {"index_nodes", st.index_nodes},
                     {"trees", trees}}};
  if (keep) *keep = std::move(e);
  return s;
}

/// Record into `lat` the wall time of each of 16 sub-batches of
/// `workload`, in log2-coarse ns buckets: the printed table's batch-latency
/// percentiles.  Wall time, so it stays out of the --counters report.
void record_batch_latency(
    obs::Histogram& lat, const serve::FrtEnsemble& e,
    const std::vector<std::pair<Vertex, Vertex>>& workload,
    serve::AggregatePolicy policy) {
  std::vector<Weight> scratch;
  constexpr std::size_t kChunks = 16;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t lo = workload.size() * c / kChunks;
    const std::size_t hi = workload.size() * (c + 1) / kChunks;
    const std::vector<std::pair<Vertex, Vertex>> chunk(
        workload.begin() + static_cast<std::ptrdiff_t>(lo),
        workload.begin() + static_cast<std::ptrdiff_t>(hi));
    const Timer t;
    (void)e.query_batch(chunk, policy, scratch);
    lat.record(static_cast<std::uint64_t>(t.seconds() * 1e9));
  }
}

/// A log2-coarse percentile of `lat` (recorded in ns) in microseconds.
std::string micros(const obs::Histogram& lat, double q) {
  return cell(static_cast<double>(lat.percentile(q)) / 1e3);
}

CounterScenario query_scenario(const std::string& name,
                               const serve::FrtEnsemble& e, const Graph& g,
                               serve::WorkloadKind kind,
                               serve::AggregatePolicy policy,
                               std::size_t pairs, std::uint64_t seed) {
  Rng rng(seed);
  serve::WorkloadOptions wopts;
  wopts.pairs = pairs;
  const auto workload = serve::make_workload(g, kind, wopts, rng);
  std::vector<Weight> out;
  const auto st = e.query_batch(workload, policy, out);
  return CounterScenario{name,
                         {{"queries", st.pairs},
                          {"tree_lookups", st.tree_lookups},
                          {"lca_probes", st.lca_probes},
                          {"result_hash32", result_hash32(out)}}};
}

CounterScenario cached_query_scenario(const std::string& name,
                                      const serve::FrtEnsemble& e,
                                      const Graph& g,
                                      serve::WorkloadKind kind,
                                      serve::AggregatePolicy policy,
                                      std::size_t pairs, std::uint64_t seed,
                                      std::size_t capacity) {
  Rng rng(seed);
  serve::WorkloadOptions wopts;
  wopts.pairs = pairs;
  const auto workload = serve::make_workload(g, kind, wopts, rng);
  serve::HotPairCache cache(capacity);
  std::vector<Weight> out;
  const auto st = e.query_batch(workload, policy, out, &cache);
  // result_hash32 must equal the uncached scenario's hash for the same
  // workload — the cache changes the lookup counts, never the doubles.
  // cache_hits is emitted ungated (more hits = better); cache_misses and
  // its admission/conflict split are gated like the lookup counters
  // (growth = cache effectiveness lost; conflicts growing alone = the hot
  // set stopped fitting its slots).
  return CounterScenario{name,
                         {{"queries", st.pairs},
                          {"tree_lookups", st.tree_lookups},
                          {"lca_probes", st.lca_probes},
                          {"cache_hits", st.cache_hits},
                          {"cache_misses", st.cache_misses},
                          {"cache_admissions", st.cache_admissions},
                          {"cache_conflicts", st.cache_conflicts},
                          {"result_hash32", result_hash32(out)}}};
}

/// The load-path contract as counter scenarios: persist `e` once, load it
/// back by copy and by mmap, and replay `pairs`
/// uniform queries on each.  Both rows must reproduce the live ensemble's
/// result_hash32; the mapped row's bulk_bytes_copied baseline is 0, so
/// the gate fails on the first copied payload byte.
std::vector<CounterScenario> load_scenarios(const serve::FrtEnsemble& e,
                                            const Graph& g,
                                            std::size_t pairs,
                                            std::uint64_t seed) {
  const std::string path = "bench_serve_load.tmp";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    e.save(out);
  }
  const auto replay_hash = [&](const serve::FrtEnsemble& loaded) {
    Rng rng(seed);
    serve::WorkloadOptions wopts;
    wopts.pairs = pairs;
    const auto workload =
        serve::make_workload(g, serve::WorkloadKind::uniform, wopts, rng);
    std::vector<Weight> out;
    (void)loaded.query_batch(workload, serve::AggregatePolicy::min, out);
    return result_hash32(out);
  };

  std::vector<CounterScenario> rows;
  {
    const serve::MappedFile file(path);
    serve::reset_load_path_counters();
    const auto copied = serve::FrtEnsemble::load(file.bytes());
    const auto lc = serve::load_path_counters();
    rows.push_back(CounterScenario{
        "serve_load_copied",
        {{"sections_copied", lc.sections_copied},
         {"bulk_bytes_copied", lc.bulk_bytes_copied},
         {"result_hash32", replay_hash(copied)}}});
  }
  {
    serve::reset_load_path_counters();
    const auto mapped = serve::FrtEnsemble::load_mapped(path);
    const auto lc = serve::load_path_counters();
    rows.push_back(CounterScenario{
        "serve_load_mapped",
        {{"sections_mapped", lc.sections_mapped},
         {"bulk_bytes_copied", lc.bulk_bytes_copied},
         {"result_hash32", replay_hash(mapped)}}});
  }
  std::remove(path.c_str());
  return rows;
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  Rng grng(42);
  const auto gnm = make_gnm(512, 1536, {1.0, 4.0}, grng);
  serve::FrtEnsemble served;
  scenarios.push_back(build_scenario("serve_build_oracle_gnm_512", gnm, 3001,
                                     4, serve::EnsemblePipeline::oracle,
                                     &served));
  scenarios.push_back(build_scenario("serve_build_direct_gnm_512", gnm, 3001,
                                     4, serve::EnsemblePipeline::direct));
  scenarios.push_back(build_scenario("serve_build_oracle_path_1024",
                                     make_path(1024), 3002, 2,
                                     serve::EnsemblePipeline::oracle));
  scenarios.push_back(query_scenario("serve_query_uniform_min", served, gnm,
                                     serve::WorkloadKind::uniform,
                                     serve::AggregatePolicy::min, 200000,
                                     3003));
  scenarios.push_back(query_scenario("serve_query_zipf_median", served, gnm,
                                     serve::WorkloadKind::zipf,
                                     serve::AggregatePolicy::median, 200000,
                                     3004));
  scenarios.push_back(query_scenario("serve_query_bfs_local_min", served,
                                     gnm, serve::WorkloadKind::bfs_local,
                                     serve::AggregatePolicy::min, 200000,
                                     3005));
  // Same Zipf workload/seed as serve_query_zipf_median, with the hot-pair
  // cache attached: result_hash32 must match it exactly, tree_lookups /
  // lca_probes drop to the distinct-pair count.
  scenarios.push_back(cached_query_scenario(
      "serve_query_zipf_median_cached", served, gnm,
      serve::WorkloadKind::zipf, serve::AggregatePolicy::median, 200000,
      3004, /*capacity=*/1 << 15));
  // Load-path rows: the copying load pins its byte volume, the mmap row
  // gates bulk_bytes_copied at 0, and both must reproduce
  // serve_query_uniform_min's result_hash32 (same workload seed).
  for (auto& s : load_scenarios(served, gnm, 200000, 3003)) {
    scenarios.push_back(std::move(s));
  }
  emit_counters(std::cout, scenarios);
}

void run(const Args& args) {
  print_header(
      "E-serve: ensemble serving throughput",
      "tree-distance queries from two LCA codes per tree; k-tree "
      "ensembles cut the served stretch (Blelloch-Gu-Sun style) at k flat "
      "lookups per query");
  const Vertex n = args.small ? 1024 : 4096;
  const std::size_t queries = args.small ? 100000 : 1000000;
  Rng rng(args.seed);

  // The batch percentiles replay each workload in 16 sub-batches.
  Table t({"family", "n", "trees", "build [ms]", "workload", "policy",
           "queries", "Mq/s", "ns/query", "batch p50 [us]", "p95 [us]",
           "p99 [us]"});
  for (const auto* family : {"gnm", "grid", "geometric"}) {
    auto inst = make_instance(family, n, rng());
    serve::EnsembleOptions opts;
    opts.trees = 8;
    opts.pipeline = serve::EnsemblePipeline::direct;
    const auto e = serve::FrtEnsemble::build(inst.graph, rng(), opts);
    const double build_ms = e.build_stats().seconds * 1e3;
    for (const auto kind :
         {serve::WorkloadKind::uniform, serve::WorkloadKind::bfs_local,
          serve::WorkloadKind::zipf}) {
      serve::WorkloadOptions wopts;
      wopts.pairs = queries;
      Rng wrng(rng());
      const auto pairs = serve::make_workload(inst.graph, kind, wopts, wrng);
      for (const auto policy :
           {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
        std::vector<Weight> out;
        Timer timer;
        (void)e.query_batch(pairs, policy, out);
        const double s = timer.seconds();
        obs::Histogram lat;
        record_batch_latency(lat, e, pairs, policy);
        t.add_row({inst.name, cell(std::size_t{inst.graph.num_vertices()}),
                   cell(e.num_trees()), cell(build_ms),
                   serve::workload_name(kind), serve::policy_name(policy),
                   cell(pairs.size()),
                   cell(static_cast<double>(pairs.size()) / s / 1e6),
                   cell(s * 1e9 / static_cast<double>(pairs.size())),
                   micros(lat, 0.50), micros(lat, 0.95), micros(lat, 0.99)});
      }
      if (kind == serve::WorkloadKind::zipf) {
        // Zipf again with the hot-pair cache (warmed by one pre-pass so
        // the row shows steady-state hit-path throughput).
        serve::HotPairCache cache(1 << 16);
        std::vector<Weight> out;
        (void)e.query_batch(pairs, serve::AggregatePolicy::min, out, &cache);
        Timer timer;
        (void)e.query_batch(pairs, serve::AggregatePolicy::min, out, &cache);
        const double s = timer.seconds();
        t.add_row({inst.name, cell(std::size_t{inst.graph.num_vertices()}),
                   cell(e.num_trees()), cell(build_ms), "zipf+cache", "min",
                   cell(pairs.size()),
                   cell(static_cast<double>(pairs.size()) / s / 1e6),
                   cell(s * 1e9 / static_cast<double>(pairs.size())), "-",
                   "-", "-"});
      }
    }
  }
  t.print();

  // Served quality, measured exactly (n Dijkstras + all-pairs queries —
  // corpus-size graphs): the Kao–Lee–Wagner distance-weighted average
  // stretch Σ served/Σ exact, plus mean/max/min of served/exact.  min ≥ 1
  // certifies dominance of the served values.
  std::cout << "\nExact served stretch (distance-weighted, vs brute-force "
               "Dijkstra):\n\n";
  const Vertex sn = args.small ? 256 : 512;
  Table st({"family", "n", "trees", "policy", "pairs", "weighted",
            "mean", "max", "min"});
  for (const auto* family : {"gnm", "grid", "geometric"}) {
    auto inst = make_instance(family, sn, rng());
    serve::EnsembleOptions opts;
    opts.trees = 8;
    opts.pipeline = serve::EnsemblePipeline::direct;
    const auto e = serve::FrtEnsemble::build(inst.graph, rng(), opts);
    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      const auto q =
          serve::measure_stretch_quality(inst.graph, e, policy);
      st.add_row({inst.name, cell(std::size_t{inst.graph.num_vertices()}),
                  cell(e.num_trees()), serve::policy_name(policy),
                  cell(q.pairs), cell(q.weighted_stretch),
                  cell(q.mean_stretch), cell(q.max_stretch),
                  cell(q.min_stretch)});
    }
  }
  st.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run,
                                 pmte::bench::run_counters);
}
