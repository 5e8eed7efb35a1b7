// E13 — micro-benchmarks of the semimodule primitives, plus the
// deterministic counter harness behind the CI bench gate.
//
// Two modes:
//   * `--counters` prints the WorkDepth counters (relaxations, edges
//     touched, work, depth, iterations) of fixed-seed MBF engine runs as
//     JSON.  The counts are logical-operation counts — identical across
//     thread counts, compilers, and machines — so scripts/
//     check_bench_regression.py can hard-fail CI on any >5% regression
//     against the committed BENCH_micro_ops.json baseline.  Beside each
//     run, stderr gets its dense bill: iterations × 2m, the relaxations of
//     recomputing every vertex from all of its edges in every round.
//   * default: google-benchmark timings of aggregation merges (Lemma 2.3),
//     the filtering LE-list merge, one receiver's LE gather, the LE
//     filter (Lemma 7.7), the k-smallest filter, and path-set products.
//     Compiled only when the library is available
//     (PMTE_HAVE_GOOGLE_BENCHMARK); without it the default mode emits `{}`
//     so scripts/run_benches.sh still gets valid JSON.

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/algebra/distance_map.hpp"
#include "src/algebra/path_set.hpp"
#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/mbf/algebras.hpp"
#include "src/mbf/engine.hpp"
#include "src/util/rng.hpp"

#ifdef PMTE_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

namespace pmte {
namespace {

// ---------------------------------------------------------------------------
// Deterministic counter scenarios (the CI gate; shared emitter in
// bench_common.hpp).

template <MbfAlgebra Algebra>
bench::CounterScenario run_scenario(const std::string& name, const Graph& g,
                                    const Algebra& alg,
                                    std::vector<typename Algebra::State> x0) {
  WorkDepth::reset();
  const WorkDepthScope scope;
  const auto run = mbf_run(g, alg, std::move(x0), g.num_vertices());
  std::cerr << name << ": " << scope.relaxations_delta()
            << " relaxations; dense bill (iterations x 2m) "
            << std::uint64_t{run.iterations} * 2 * g.num_edges() << "\n";
  return bench::CounterScenario{name,
                                {{"relaxations", scope.relaxations_delta()},
                                 {"edges_touched", scope.edges_touched_delta()},
                                 {"work", scope.work_delta()},
                                 {"depth", scope.depth_delta()},
                                 {"iterations", run.iterations}}};
}

void emit_counters(std::ostream& os) {
  std::vector<bench::CounterScenario> reports;

  // Scalar SSSP on a long path — SPD = n−1, the dense bill's worst case
  // and the frontier's best.
  {
    const Vertex n = 2048;
    const auto g = make_path(n);
    ScalarDistanceAlgebra alg;
    std::vector<Weight> x0(n, inf_weight());
    x0[0] = 0.0;
    reports.push_back(run_scenario("sssp_path_frontier", g, alg, x0));
  }

  // Scalar SSSP on a weighted grid — a 2D wavefront.
  {
    const auto g = make_grid(48, 48, {1.0, 2.0}, Rng(42));
    ScalarDistanceAlgebra alg;
    std::vector<Weight> x0(g.num_vertices(), inf_weight());
    x0[0] = 0.0;
    reports.push_back(run_scenario("sssp_grid_frontier", g, alg, x0));
  }

  // LE lists on a low-diameter ER graph — the frontier stays broad for a
  // few rounds.
  {
    Rng rng(7);
    const auto g = make_gnm(512, 1536, {1.0, 4.0}, rng);
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    const LeListAlgebra alg;
    reports.push_back(run_scenario("le_lists_gnm_frontier", g, alg,
                                   le_initial_state(order)));
  }

  // Source detection on a star — one round of fan-out, then collapse.
  {
    Rng rng(9);
    const auto g = make_star(2048, {1.0, 5.0}, rng);
    SourceDetectionAlgebra alg{.k = 4, .max_dist = inf_weight()};
    std::vector<DistanceMap> x0(g.num_vertices());
    for (Vertex s : {0U, 17U, 511U, 1999U}) {
      x0[s] = DistanceMap::singleton(s, 0.0);
    }
    reports.push_back(run_scenario("source_detection_star_frontier", g, alg,
                                   std::move(x0)));
  }

  bench::emit_counters(os, reports);
}

// ---------------------------------------------------------------------------
// google-benchmark timings.

#ifdef PMTE_HAVE_GOOGLE_BENCHMARK

DistanceMap random_map(Rng& rng, Vertex key_range, std::size_t entries) {
  std::vector<DistEntry> es;
  es.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    es.push_back(DistEntry{static_cast<Vertex>(rng.below(key_range)),
                           rng.uniform(0.0, 1000.0)});
  }
  return DistanceMap::from_entries(std::move(es));
}

void BM_MergeMin(benchmark::State& state) {
  Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto a = random_map(rng, 1 << 20, size);
  const auto b = random_map(rng, 1 << 20, size);
  for (auto _ : state) {
    auto x = a;
    x.merge_min(b, 1.5);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
}
BENCHMARK(BM_MergeMin)->Arg(16)->Arg(256)->Arg(4096);

// The LE-list ⊕ on BM_MergeMin's inputs: the same merge, emitting only
// the staircase.
void BM_MergeLeastElements(benchmark::State& state) {
  Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto a = random_map(rng, 1 << 20, size);
  const auto b = random_map(rng, 1 << 20, size);
  for (auto _ : state) {
    auto x = a;
    x.merge_least_elements(b, 1.5);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
}
BENCHMARK(BM_MergeLeastElements)->Arg(16)->Arg(256)->Arg(4096);

// One receiver of an MBF round: x is a staircase of `size` entries (keys
// 4i, distances size − i) and the offer y takes every second entry
// (range(1) = 0, a delta-size offer) or every entry (range(1) = 1, a full
// offer), one key up inside x's gap.  At shift 1.5 an absorbed offer
// (range(2) = 1) ties x's distance there and changes nothing; otherwise
// each entry beats x by 0.5 and the gather merges all of them.
std::pair<DistanceMap, DistanceMap> receiver_and_offer(
    const benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const bool full = state.range(1) != 0;
  const Weight beat = state.range(2) != 0 ? 0.0 : 0.5;
  std::vector<DistEntry> xs, ys;
  for (std::size_t i = 0; i < size; ++i) {
    const auto key = static_cast<Vertex>(4 * i);
    const auto dist = static_cast<Weight>(size - i);
    xs.push_back(DistEntry{key, dist});
    if (full || i % 2 == 0) ys.push_back(DistEntry{key + 1, dist - 1.5 - beat});
  }
  return {DistanceMap::from_entries(std::move(xs)),
          DistanceMap::from_entries(std::move(ys))};
}

void gather_rows(benchmark::internal::Benchmark* b) {
  for (const std::int64_t size : {8, 16, 32}) {
    for (const std::int64_t full : {0, 1}) {
      for (const std::int64_t absorbed : {1, 0}) {
        b->Args({size, full, absorbed});
      }
    }
  }
}

void BM_GatherLeastElements(benchmark::State& state) {
  const auto [x, y] = receiver_and_offer(state);
  const Offer<DistanceMap> offer{&y, 1.5, 0};
  DistanceMap out;
  for (auto _ : state) {
    const bool changed =
        DistanceMap::gather_least_elements(x, std::span(&offer, 1), out);
    benchmark::DoNotOptimize(changed);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size() + y.size()));
}
BENCHMARK(BM_GatherLeastElements)->Apply(gather_rows);

// The plain merge on the same inputs: copy x, merge y in, as a receiver
// recomputed offer by offer would.
void BM_MergeLeastElementsReceiver(benchmark::State& state) {
  const auto [x, y] = receiver_and_offer(state);
  DistanceMap out;
  for (auto _ : state) {
    out = x;
    out.merge_least_elements(y, 1.5);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size() + y.size()));
}
BENCHMARK(BM_MergeLeastElementsReceiver)->Apply(gather_rows);

void BM_LeFilter(benchmark::State& state) {
  Rng rng(2);
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto m = random_map(rng, 1 << 20, size);
  for (auto _ : state) {
    auto x = m;
    x.keep_least_elements();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_LeFilter)->Arg(16)->Arg(256)->Arg(4096);

void BM_KeepKSmallest(benchmark::State& state) {
  Rng rng(3);
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto m = random_map(rng, 1 << 20, size);
  for (auto _ : state) {
    auto x = m;
    x.keep_k_smallest(16);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_KeepKSmallest)->Arg(256)->Arg(4096);

void BM_PathSetTimes(benchmark::State& state) {
  Rng rng(4);
  PathSet a, b;
  for (Vertex i = 0; i < 8; ++i) {
    a = a.plus(PathSet::single(VertexPath{{0, static_cast<Vertex>(i + 1)}},
                               rng.uniform(0.0, 10.0)));
    b = b.plus(PathSet::single(
        VertexPath{{static_cast<Vertex>(i + 1), static_cast<Vertex>(i + 9)}},
        rng.uniform(0.0, 10.0)));
  }
  for (auto _ : state) {
    auto c = a.times(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PathSetTimes);

void BM_MbfFrontierStep(benchmark::State& state) {
  // One fixpoint run per iteration: allocation-free steady state via
  // engine reset, dominated by the frontier machinery itself.
  const auto g = make_grid(32, 32, {1.0, 2.0}, Rng(5));
  ScalarDistanceAlgebra alg;
  MbfEngine<ScalarDistanceAlgebra> engine(g, alg);
  std::vector<Weight> x0(g.num_vertices(), inf_weight());
  x0[0] = 0.0;
  for (auto _ : state) {
    engine.reset(x0);
    while (engine.step()) {
    }
    benchmark::DoNotOptimize(engine.states().data());
  }
}
BENCHMARK(BM_MbfFrontierStep);

#endif  // PMTE_HAVE_GOOGLE_BENCHMARK

}  // namespace
}  // namespace pmte

// --counters prints the gated counter report; any other arguments go to
// google-benchmark, whose parser rejects the flags it does not know.
int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--counters") {
    pmte::emit_counters(std::cout);
    return 0;
  }
#ifdef PMTE_HAVE_GOOGLE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  // Keep run_benches.sh's JSON assembly happy without google-benchmark.
  std::cerr << "bench_micro_ops: built without google-benchmark; only "
               "--counters is available\n";
  std::cout << "{}\n";
  return 0;
#endif
}
