// Rebuild-differential harness for the incremental update path
// (docs/DYNAMIC.md).  The dynamic contract is total: after any sequence of
// edge re-weightings, a DynamicEnsemble must be *bit-identical* — LE
// lists, FRT trees, serving indices, served doubles, and logical counters
// — to rebuilding from scratch over the same built H with the final
// weights applied.  The harness replays randomized update sequences over
// the 50-graph serving corpus and pins that equivalence at 1/2/8 threads,
// including updates interleaved with Server epoch hot-swaps and snapshots
// round-tripped through the mapped load path.
//
// The suite carries the `tsan-par` CTest label: the 8-thread replays run
// the concurrent pieces of the update path (parallel maintainer builds,
// per-level engine rounds, parallel apply over trees) under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/frt/dynamic_frt.hpp"
#include "src/frt/le_lists.hpp"
#include "src/frt/pipelines.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/assertions.hpp"
#include "tests/support/fixtures.hpp"

namespace pmte {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

::testing::AssertionResult bits_equal(const std::vector<Weight>& a,
                                      const std::vector<Weight>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(Weight)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at index " << i << ": " << a[i]
               << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

serve::EnsembleOptions dyn_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = serve::EnsemblePipeline::oracle;
  return opts;
}

/// One step of a randomized update sequence.  The factor is relative to
/// the weight at apply time, so sequences compose (repeated hits on the
/// same edge compound).
struct EdgeUpdate {
  Vertex u = 0;
  Vertex v = 0;
  double factor = 1.0;
};

/// k randomized re-weightings: the first is always a decrease (the warm
/// path must be exercised in every sequence), the rest flip between
/// decreases and increases so invalidation and its recovery are hit too.
std::vector<EdgeUpdate> make_sequence(const Graph& g, std::size_t k,
                                      Rng& rng) {
  const auto edges = g.edge_list();
  std::vector<EdgeUpdate> seq(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& e = edges[rng.below(edges.size())];
    const bool decrease = i == 0 || rng.flip(0.5);
    seq[i].u = e.u;
    seq[i].v = e.v;
    seq[i].factor =
        decrease ? rng.uniform(0.3, 0.95) : rng.uniform(1.05, 1.8);
  }
  return seq;
}

std::vector<std::pair<Vertex, Vertex>> make_pairs(Vertex n, std::size_t k,
                                                  Rng& rng) {
  std::vector<std::pair<Vertex, Vertex>> pairs(k);
  for (auto& p : pairs) {
    p.first = static_cast<Vertex>(rng.below(n));
    p.second = static_cast<Vertex>(rng.below(n));
  }
  return pairs;
}

/// Apply exactly the edges whose weight changed, as the dynamic path does.
/// Writing *every* original edge would clobber G'-merged weights where a
/// cheaper hop-set shortcut undercut the edge (augmented() keeps the
/// minimum of parallel edges) — an untouched edge must keep the merged
/// weight.
void reweight_base(SimulatedGraph& h, const Graph& original,
                   const Graph& current) {
  const auto before = original.edge_list();
  const auto after = current.edge_list();
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i].weight != before[i].weight) {
      h.set_base_edge_weight(after[i].u, after[i].v, after[i].weight);
    }
  }
}

/// Full from-scratch rebuild over the (re-weighted) reference H: fresh
/// per-tree RNG streams, fresh oracle runs, fresh trees and indices.
/// This is the ground truth every post-update snapshot is pinned against.
serve::FrtEnsemble rebuild_reference(const SimulatedGraph& h,
                                     const Graph& current,
                                     std::uint64_t master_seed,
                                     const serve::EnsembleOptions& opts) {
  std::vector<serve::FrtIndex> indices(opts.trees);
  for (std::size_t t = 0; t < opts.trees; ++t) {
    Rng rng(split_seed(master_seed, 1 + t));
    const auto s = sample_frt_oracle_on(h, rng, opts.frt);
    indices[t] = serve::FrtIndex::build(s.tree);
  }
  return serve::FrtEnsemble::assemble(std::move(indices), master_seed,
                                      serve::FrtEnsemble::fingerprint(current));
}

/// Apply `seq` through a DynamicEnsemble at the current thread count,
/// recording the post-update snapshot and logical counters of every step
/// plus a served batch over the final state.
struct SequenceResult {
  std::vector<serve::FrtEnsemble> snaps;
  std::vector<serve::DynamicEnsemble::UpdateStats> stats;
  std::vector<Weight> served;
};

SequenceResult replay_sequence(const Graph& g, std::uint64_t seed,
                               const std::vector<EdgeUpdate>& seq,
                               const std::vector<std::pair<Vertex, Vertex>>&
                                   pairs,
                               const serve::EnsembleOptions& opts) {
  SequenceResult r;
  serve::DynamicEnsemble dyn(g, seed, opts);
  for (const auto& ev : seq) {
    const Weight w_new = dyn.graph().edge_weight(ev.u, ev.v) * ev.factor;
    r.stats.push_back(dyn.update(ev.u, ev.v, w_new));
    r.snaps.push_back(dyn.snapshot());
  }
  r.snaps.back().query_batch(pairs, serve::AggregatePolicy::min, r.served);
  return r;
}

/// The headline differential: 50 corpus graphs x 4 seeds = 200 randomized
/// update sequences.  At 1 thread every post-update snapshot is pinned
/// against a full rebuild (ensemble equality covers trees, index arrays,
/// and fingerprints) and the final LE lists are pinned per tree against a
/// fresh oracle run with the maintainer's own beta/order; the 2- and
/// 8-thread replays must then reproduce the 1-thread snapshots, counters,
/// and served doubles bit-for-bit.
///
/// It runs as kCorpusSlices instances over disjoint slices of the corpus
/// (slice s holds graphs [10s, 10s + 10)), each its own CTest entry
/// (test_dynamic_corpus_<s>, tests/CMakeLists.txt), so that `ctest -j`
/// replays the slices side by side.
constexpr std::size_t kCorpusGraphs = 50;
constexpr std::size_t kCorpusSlices = 5;
constexpr std::size_t kGraphsPerSlice = kCorpusGraphs / kCorpusSlices;
static_assert(kGraphsPerSlice * kCorpusSlices == kCorpusGraphs);

class DynamicCorpus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DynamicCorpus, RebuildDifferential) {
  ThreadGuard guard;
  const auto opts = dyn_options(2);
  const auto corpus = test::serve_graph_corpus(kCorpusGraphs, 0xD15C0);
  const auto slice = std::span(corpus).subspan(GetParam() * kGraphsPerSlice,
                                               kGraphsPerSlice);
  std::size_t sequences = 0;
  for (const auto& cse : slice) {
    for (const std::uint64_t seed : test::test_seeds(4, cse.seed)) {
      ++sequences;
      Rng rng(split_seed(seed, 9001));
      const auto seq = make_sequence(cse.graph, 2, rng);
      const auto pairs = make_pairs(cse.graph.num_vertices(), 48, rng);

      set_num_threads(1);
      const auto ref = replay_sequence(cse.graph, seed, seq, pairs, opts);

      // Rebuild differential at every step: shared H, final weights of
      // the step, fresh trees.  The update contract re-weights the built
      // H's base in place — hop-set shortcuts are never re-derived — so
      // the reference shares the stream-0 H of the original weights and
      // only swaps the base weights (serve/dynamic_ensemble.hpp).
      auto h = ensemble_simulated_graph(cse.graph, seed, opts.frt);
      Graph current = cse.graph;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        current.set_edge_weight(
            seq[i].u, seq[i].v,
            current.edge_weight(seq[i].u, seq[i].v) * seq[i].factor);
        reweight_base(h, cse.graph, current);
        const auto rebuilt = rebuild_reference(h, current, seed, opts);
        ASSERT_TRUE(ref.snaps[i] == rebuilt)
            << cse.name << " seed " << seed << " update " << i;
        ASSERT_EQ(ref.snaps[i].registry_fingerprint(),
                  rebuilt.registry_fingerprint())
            << cse.name << " seed " << seed << " update " << i;
      }

      // LE-list differential on the final state, one maintainer at a
      // time: same beta/order draws, fresh oracle run on the re-weighted
      // H, bit-identical lists.
      {
        serve::DynamicEnsemble dyn(cse.graph, seed, opts);
        for (const auto& ev : seq) {
          dyn.update(ev.u, ev.v,
                     dyn.graph().edge_weight(ev.u, ev.v) * ev.factor);
        }
        for (std::size_t t = 0; t < opts.trees; ++t) {
          const DynamicFrt& m = dyn.maintainer(t);
          Rng tree_rng(split_seed(seed, 1 + t));
          EXPECT_EQ(sample_beta(tree_rng), m.beta()) << cse.name;
          const auto order =
              VertexOrder::random(cse.graph.num_vertices(), tree_rng);
          ASSERT_EQ(order.rank_of, m.order().rank_of) << cse.name;
          const auto le = le_lists_oracle(h, m.order(),
                                          opts.frt.max_iterations);
          EXPECT_TRUE(le.converged);
          EXPECT_TRUE(m.converged());
          ASSERT_EQ(le.lists, m.lists())
              << cse.name << " seed " << seed << " tree " << t;
        }
      }

      // Thread-count replays: snapshots, logical counters, and served
      // doubles must all reproduce the 1-thread record bit-for-bit.
      for (const int threads : kThreadCounts) {
        if (threads == 1) continue;
        set_num_threads(threads);
        const auto r = replay_sequence(cse.graph, seed, seq, pairs, opts);
        for (std::size_t i = 0; i < seq.size(); ++i) {
          ASSERT_TRUE(r.snaps[i] == ref.snaps[i])
              << cse.name << " seed " << seed << " update " << i << " at "
              << threads << " threads";
          EXPECT_EQ(r.stats[i].incremental, ref.stats[i].incremental);
          EXPECT_EQ(r.stats[i].trees_rebuilt, ref.stats[i].trees_rebuilt);
          EXPECT_EQ(r.stats[i].levels_recomputed,
                    ref.stats[i].levels_recomputed)
              << cse.name << " seed " << seed << " update " << i << " at "
              << threads << " threads";
          EXPECT_EQ(r.stats[i].levels_skipped, ref.stats[i].levels_skipped);
          EXPECT_EQ(r.stats[i].relaxations, ref.stats[i].relaxations);
        }
        EXPECT_TRUE(bits_equal(ref.served, r.served))
            << cse.name << " seed " << seed << " at " << threads
            << " threads";
      }
      set_num_threads(1);
    }
  }
  EXPECT_EQ(sequences, 4 * kGraphsPerSlice);
}

INSTANTIATE_TEST_SUITE_P(Slices, DynamicCorpus,
                         ::testing::Range<std::size_t>(0, kCorpusSlices));

/// With zero updates the maintained state must be indistinguishable from
/// the static build: same indices, same registry fingerprint (so
/// Server::load of either is idempotent in the registry).
TEST(Dynamic, FreshSnapshotEqualsStaticBuild) {
  const auto g = test::support_graph("gnm", 128, 0xF00D);
  ThreadGuard guard;
  set_num_threads(1);
  const auto opts = dyn_options(3);
  const serve::DynamicEnsemble dyn(g, 4711, opts);
  const auto built = serve::FrtEnsemble::build(g, 4711, opts);
  EXPECT_TRUE(dyn.snapshot() == built);
  EXPECT_EQ(dyn.snapshot().registry_fingerprint(),
            built.registry_fingerprint());

  serve::EnsembleRegistry registry;
  const auto fp = registry.add(serve::FrtEnsemble::build(g, 4711, opts));
  EXPECT_EQ(registry.add(dyn.snapshot()), fp);
  EXPECT_EQ(registry.size(), 1u);
}

/// Path selection and accounting: a decrease rides the warm caches, an
/// increase invalidates, a no-op re-weighting changes nothing.
TEST(Dynamic, UpdatePathSelectionAndCounters) {
  const auto g = test::support_graph("geometric", 96, 0xCAFE);
  ThreadGuard guard;
  set_num_threads(1);
  serve::DynamicEnsemble dyn(g, 99, dyn_options(2));
  const auto before = dyn.snapshot();
  const auto e = g.edge_list().front();

  // Re-weighting to the current weight is a (degenerate) decrease: every
  // oracle converges immediately back to its fixpoint, no tree changes,
  // and the snapshot stays content-identical.
  const auto noop = dyn.update(e.u, e.v, e.weight);
  EXPECT_TRUE(noop.incremental);
  EXPECT_EQ(noop.trees_rebuilt, 0u);
  EXPECT_TRUE(dyn.snapshot() == before);
  EXPECT_EQ(dyn.updates_applied(), 1u);

  const auto dec = dyn.update(e.u, e.v, e.weight * 0.5);
  EXPECT_TRUE(dec.incremental);
  EXPECT_GT(dec.levels_recomputed, 0u);
  for (std::size_t t = 0; t < dyn.num_trees(); ++t) {
    EXPECT_TRUE(dyn.maintainer(t).last_update_incremental());
    EXPECT_TRUE(dyn.maintainer(t).converged());
  }

  const auto inc = dyn.update(e.u, e.v, e.weight * 2.0);
  EXPECT_FALSE(inc.incremental);
  EXPECT_GT(inc.levels_recomputed, 0u);
  for (std::size_t t = 0; t < dyn.num_trees(); ++t) {
    EXPECT_FALSE(dyn.maintainer(t).last_update_incremental());
    EXPECT_TRUE(dyn.maintainer(t).converged());
  }
  EXPECT_EQ(dyn.updates_applied(), 3u);
  // The warm path must do strictly less level work than invalidation
  // recovery on the same edge (the bench_dynamic gate pins the ratio).
  EXPECT_LT(dec.levels_recomputed, inc.levels_recomputed);
}

/// A cycle with a heavy chord {i, i+2} at every vertex.  No chord lies on
/// a shortest path, so fewest-hop shortest paths run up to n/2 hops and the
/// hop set keeps its hub clique; every two hubs two steps apart then get a
/// shortcut that undercuts their chord.
Graph chorded_cycle(Vertex n) {
  auto edges = make_cycle(n, {1.0, 2.0}, Rng(31)).edge_list();
  for (Vertex i = 0; i < n; ++i) edges.push_back({i, (i + 2) % n, 5.0});
  return Graph::from_edges(n, std::move(edges));
}

/// Regression for the warm/invalidate decision point: G' can merge a
/// cheaper hop-set shortcut into an existing edge, so lowering the
/// *graph* weight to a value still above the merged G' weight raises the
/// metric the engines iterate on — the update must invalidate (the warm
/// path's caches would be too strong), and the result must still match a
/// full rebuild bit-for-bit.
TEST(Dynamic, GraphDecreaseOverMergedShortcutInvalidates) {
  ThreadGuard guard;
  set_num_threads(1);
  const auto opts = dyn_options(2);
  const auto g = chorded_cycle(160);
  bool found = false;
  for (const std::uint64_t seed : test::test_seeds(4, 0xC40D)) {
    auto h = ensemble_simulated_graph(g, seed, opts.frt);
    for (const auto& e : g.edge_list()) {
      const Weight w_prime = h.base().edge_weight(e.u, e.v);
      if (w_prime >= e.weight) continue;  // no shortcut undercut {u,v}
      found = true;
      const Weight w_new = 0.5 * (w_prime + e.weight);
      ASSERT_LT(w_new, e.weight);  // graph-level decrease...
      ASSERT_GT(w_new, w_prime);   // ...that raises the G' weight
      serve::DynamicEnsemble dyn(g, seed, opts);
      const auto stats = dyn.update(e.u, e.v, w_new);
      EXPECT_FALSE(stats.incremental) << "seed " << seed;
      Graph current = g;
      current.set_edge_weight(e.u, e.v, w_new);
      reweight_base(h, g, current);
      const auto rebuilt = rebuild_reference(h, current, seed, opts);
      EXPECT_TRUE(dyn.snapshot() == rebuilt) << "seed " << seed;
      break;
    }
    if (found) break;
  }
  // Only a graph whose hop set keeps the clique can merge a shortcut into
  // an edge; if the chorded cycle ever stops doing so, the fixture (not
  // the update contract) needs changing.
  EXPECT_TRUE(found);
}

/// Scenario driver for the swap-interleaved test: two tenants served in 6
/// batches; before batch 2 a decrease is applied and *both* tenants are
/// staged onto the new snapshot, before batch 4 an increase is applied
/// and only tenant 0 follows.
struct SwapScenario {
  std::vector<Weight> out;
  std::vector<serve::TenantCounters> counters;
  std::vector<serve::FrtEnsemble> snaps;  ///< epoch ensembles, in order
  std::size_t registry_size = 0;
  std::uint64_t retired = 0;
};

SwapScenario run_swap_scenario(const Graph& g,
                               const std::vector<serve::TenantQuery>& stream,
                               std::size_t batches) {
  constexpr std::size_t kTenants = 2;
  SwapScenario r;
  serve::DynamicEnsemble dyn(g, 606, dyn_options(3));
  serve::Server server;
  r.snaps.push_back(dyn.snapshot());
  const auto fp0 = server.load(dyn.snapshot());
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantConfig cfg;
    cfg.ensemble = fp0;
    cfg.policy = (t % 2 == 0) ? serve::AggregatePolicy::min
                              : serve::AggregatePolicy::median;
    cfg.cache_capacity = 256;
    server.add_tenant(cfg);
  }
  const auto edges = g.edge_list();
  std::vector<Weight> out;
  for (std::size_t b = 0; b < batches; ++b) {
    if (b == 2) {
      const auto& e = edges[3 % edges.size()];
      dyn.update(e.u, e.v, dyn.graph().edge_weight(e.u, e.v) * 0.5);
      r.snaps.push_back(dyn.snapshot());
      const auto fp = server.load(dyn.snapshot());
      server.stage_swap(0, fp);
      server.stage_swap(1, fp);
    }
    if (b == 4) {
      const auto& e = edges[7 % edges.size()];
      dyn.update(e.u, e.v, dyn.graph().edge_weight(e.u, e.v) * 1.7);
      r.snaps.push_back(dyn.snapshot());
      const auto fp = server.load(dyn.snapshot());
      server.stage_swap(0, fp);
    }
    const std::size_t lo = stream.size() * b / batches;
    const std::size_t hi = stream.size() * (b + 1) / batches;
    server.serve(std::span(stream).subspan(lo, hi - lo), out);
    r.out.insert(r.out.end(), out.begin(), out.end());
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    r.counters.push_back(server.counters(static_cast<serve::TenantId>(t)));
  }
  r.registry_size = server.registry().size();
  r.retired = server.epochs_retired();
  return r;
}

/// Tenant t's queries from the stream slice [0, size) split at batch
/// boundaries, as query_batch input per epoch segment.
std::vector<std::vector<std::pair<Vertex, Vertex>>> split_tenant(
    const std::vector<serve::TenantQuery>& stream, serve::TenantId t,
    std::size_t batches, const std::vector<std::size_t>& boundaries) {
  std::vector<std::vector<std::pair<Vertex, Vertex>>> segments(
      boundaries.size() + 1);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].tenant != t) continue;
    std::size_t seg = 0;
    for (const std::size_t b : boundaries) {
      if (i >= stream.size() * b / batches) ++seg;
    }
    segments[seg].emplace_back(stream[i].u, stream[i].v);
  }
  return segments;
}

/// Updates interleaved with epoch hot-swaps: the interleaved scenario is
/// thread-count invariant, and every tenant's served values equal a
/// serial replay of its stream split at its own swap points, each segment
/// against the matching dynamic snapshot with a fresh cache.
TEST(Dynamic, UpdatesInterleavedWithEpochSwaps) {
  const auto g = test::support_graph("gnm", 144, 0xABBA);
  constexpr std::size_t kBatches = 6;
  std::vector<serve::TenantStreamSpec> specs(2);
  specs[0].kind = serve::WorkloadKind::zipf;
  specs[0].opts.pairs = 900;
  specs[0].opts.zipf_s = 1.2;
  specs[1].kind = serve::WorkloadKind::uniform;
  specs[1].opts.pairs = 900;
  const auto stream = serve::make_multi_tenant_workload(g, specs, 606);

  ThreadGuard guard;
  set_num_threads(1);
  const auto reference = run_swap_scenario(g, stream, kBatches);
  ASSERT_EQ(reference.snaps.size(), 3u);
  // fp0 drained once both tenants flipped at batch 2; the increase
  // snapshot joins at batch 4 with tenant 1 still on the middle epoch.
  EXPECT_EQ(reference.retired, 1u);
  EXPECT_EQ(reference.registry_size, 2u);
  EXPECT_EQ(reference.counters[0].epoch, 2u);
  EXPECT_EQ(reference.counters[1].epoch, 1u);

  for (const int threads : kThreadCounts) {
    set_num_threads(threads);
    const auto r = run_swap_scenario(g, stream, kBatches);
    EXPECT_TRUE(bits_equal(reference.out, r.out)) << threads << " threads";
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(reference.counters[t].result_hash64,
                r.counters[t].result_hash64)
          << "tenant " << t << ", " << threads << " threads";
      EXPECT_EQ(reference.counters[t].cache_admissions,
                r.counters[t].cache_admissions);
      EXPECT_EQ(reference.counters[t].cache_conflicts,
                r.counters[t].cache_conflicts);
    }
    EXPECT_EQ(r.retired, reference.retired);
    EXPECT_EQ(r.registry_size, reference.registry_size);
  }
  set_num_threads(1);

  // Serial replay differential.  Tenant 0 swaps at batches 2 and 4 —
  // three epoch segments; tenant 1 swaps at batch 2 only — the increase
  // snapshot never reaches it.
  std::vector<Weight> served0, served1;
  std::size_t consumed = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t lo = stream.size() * b / kBatches;
    const std::size_t hi = stream.size() * (b + 1) / kBatches;
    for (std::size_t i = lo; i < hi; ++i) {
      (stream[i].tenant == 0 ? served0 : served1)
          .push_back(reference.out[consumed + i - lo]);
    }
    consumed += hi - lo;
  }
  const auto seg0 = split_tenant(stream, 0, kBatches, {2, 4});
  const auto seg1 = split_tenant(stream, 1, kBatches, {2});
  std::vector<Weight> replay0, replay1, part;
  for (std::size_t s = 0; s < seg0.size(); ++s) {
    serve::HotPairCache cache(256);
    reference.snaps[s].query_batch(seg0[s], serve::AggregatePolicy::min,
                                   part, &cache);
    replay0.insert(replay0.end(), part.begin(), part.end());
  }
  for (std::size_t s = 0; s < seg1.size(); ++s) {
    serve::HotPairCache cache(256);
    reference.snaps[s].query_batch(seg1[s], serve::AggregatePolicy::median,
                                   part, &cache);
    replay1.insert(replay1.end(), part.begin(), part.end());
  }
  EXPECT_TRUE(bits_equal(served0, replay0));
  EXPECT_TRUE(bits_equal(served1, replay1));
}

/// Updated snapshots survive the mapped serving path: save → mmap
/// load is content-identical, serves the same doubles, and hot-swapping a
/// tenant onto a mapped post-update epoch equals querying the snapshot
/// directly.
TEST(Dynamic, MappedSnapshotServesUpdatedMetric) {
  const auto g = test::support_graph("geometric", 112, 0x31AB);
  ThreadGuard guard;
  set_num_threads(1);
  serve::DynamicEnsemble dyn(g, 808, dyn_options(2));
  const auto edges = g.edge_list();

  dyn.update(edges[1].u, edges[1].v, edges[1].weight * 0.4);
  const auto snap1 = dyn.snapshot();
  dyn.update(edges[5].u, edges[5].v, edges[5].weight * 1.6);
  const auto snap2 = dyn.snapshot();
  ASSERT_NE(snap1.registry_fingerprint(), snap2.registry_fingerprint());

  const std::string path1 = "test_dynamic_mapped1.tmp";
  const std::string path2 = "test_dynamic_mapped2.tmp";
  {
    std::ofstream out1(path1, std::ios::binary | std::ios::trunc);
    snap1.save(out1);
    std::ofstream out2(path2, std::ios::binary | std::ios::trunc);
    snap2.save(out2);
  }
  auto mapped1 = serve::FrtEnsemble::load_mapped(path1);
  auto mapped2 = serve::FrtEnsemble::load_mapped(path2);
  EXPECT_TRUE(mapped1 == snap1);
  EXPECT_TRUE(mapped2 == snap2);

  Rng rng(split_seed(808, 1234));
  const auto pairs = make_pairs(g.num_vertices(), 400, rng);
  std::vector<Weight> want1, want2, got;
  snap1.query_batch(pairs, serve::AggregatePolicy::min, want1);
  snap2.query_batch(pairs, serve::AggregatePolicy::min, want2);
  mapped1.query_batch(pairs, serve::AggregatePolicy::min, got);
  EXPECT_TRUE(bits_equal(want1, got));
  mapped2.query_batch(pairs, serve::AggregatePolicy::min, got);
  EXPECT_TRUE(bits_equal(want2, got));

  // Serve both epochs through a Server holding the *mapped* images.
  serve::Server server;
  const auto fp1 = server.load(std::move(mapped1));
  const auto fp2 = server.load(std::move(mapped2));
  serve::TenantConfig cfg;
  cfg.ensemble = fp1;
  cfg.cache_capacity = 128;
  const auto tid = server.add_tenant(cfg);
  std::vector<serve::TenantQuery> batch(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    batch[i] = {tid, pairs[i].first, pairs[i].second};
  }
  std::vector<Weight> out;
  server.serve(batch, out);
  EXPECT_TRUE(bits_equal(want1, out));
  server.stage_swap(tid, fp2);
  server.serve(batch, out);
  EXPECT_TRUE(bits_equal(want2, out));
  EXPECT_EQ(server.counters(tid).epoch, 1u);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(UpdateFile, ReadsEventsAndNamesEveryBadLine) {
  std::istringstream good("# fixture\n1 3 0.5\n\n2 7 1.7  # increase\n");
  const auto events = serve::read_update_file(good, "good.txt", 10, 4);
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].batch, 1U);
  EXPECT_EQ(events[0].edge, 3U);
  EXPECT_EQ(events[0].factor, 0.5);
  EXPECT_EQ(events[1].batch, 2U);
  EXPECT_EQ(events[1].edge, 7U);
  EXPECT_EQ(events[1].factor, 1.7);

  std::istringstream bad("1 3 0.5\n0 1 nan\n\n3 -1 0.5\n4 0 0.5\n0 10 2\n");
  try {
    (void)serve::read_update_file(bad, "bad.txt", 10, 4);
    ADD_FAILURE() << "bad.txt was read";
  } catch (const CheckError& err) {
    const std::string message = err.message();
    EXPECT_EQ(message.find("bad.txt:2: bad update line"), 0U) << message;
    for (const char* line :
         {"\nbad.txt:4: ", "\nbad.txt:5: ", "\nbad.txt:6: "}) {
      EXPECT_NE(message.find(line), std::string::npos) << message;
    }
    EXPECT_EQ(message.find("bad.txt:1:"), std::string::npos) << message;
  }
}

TEST(UpdateFile, RandomizedMalformedInputSweep) {
  // Seeded mutations of one line of a valid update file: a token deleted,
  // duplicated or given a junk suffix, a sign on an index, a 20+-digit
  // number in place of any token, a nan, inf, zero or negative factor, an
  // edge index equal to the edge count, and a batch equal to the batch
  // count.  The contract on read_update_file is "reject or read": a
  // rejection is a CheckError naming exactly the mutated line as
  // file:line, never another exception type; a read returns one in-range
  // event per data line.
  constexpr std::size_t kEdges = 40;
  constexpr std::size_t kBatches = 6;
  Rng rng(split_seed(0x0F11E, 0));
  using Lines = std::vector<std::vector<std::string>>;
  Lines good{{"#", "fixture"}};
  for (int i = 0; i < 12; ++i) {
    if (i % 4 == 3) good.emplace_back();  // a blank line
    good.push_back({std::to_string(rng.below(kBatches)),
                    std::to_string(rng.below(kEdges)),
                    std::to_string(rng.uniform(0.25, 4.0))});
  }
  const std::size_t data_lines = 12;

  constexpr int kKinds = 8;
  std::array<int, kKinds> tried{}, rejected{}, read{};
  for (int iter = 0; iter < kKinds * 500; ++iter) {
    const int kind = iter % kKinds;
    auto lines = good;
    std::size_t at = 0;  // a data line
    while (lines[at].size() != 3) at = rng.below(lines.size());
    auto& tokens = lines[at];
    const std::size_t t = rng.below(3);
    const std::size_t index = rng.below(2);  // batch or edge
    if (kind == 0) {
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
    } else if (kind == 1) {
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                    tokens[t]);
    } else if (kind == 2) {
      const char* junk[] = {"x", "!", "e", "..", "-", ",", "0x"};
      tokens[t] += junk[rng.below(std::size(junk))];
    } else if (kind == 3) {
      tokens[index] = (rng.flip(0.5) ? "+" : "-") + tokens[index];
    } else if (kind == 4) {  // 20–29 digits in place of any token
      std::string digits(20 + rng.below(10), '0');
      for (char& c : digits) c = static_cast<char>('1' + rng.below(9));
      tokens[t] = digits;
    } else if (kind == 5) {
      const char* factor[] = {"nan", "inf", "-inf", "0", "0.0", "-0",
                              "-0.5", "-1e-300", "1e999"};
      tokens[2] = factor[rng.below(std::size(factor))];
    } else if (kind == 6) {
      tokens[1] = std::to_string(kEdges);
    } else {
      tokens[0] = std::to_string(kBatches);
    }
    std::string text;
    for (const auto& line : lines) {
      for (std::size_t i = 0; i < line.size(); ++i) {
        text += (i == 0 ? "" : " ") + line[i];
      }
      text += '\n';
    }
    ++tried[kind];
    try {
      std::istringstream in(text);
      const auto events =
          serve::read_update_file(in, "sweep.txt", kEdges, kBatches);
      ASSERT_EQ(events.size(), data_lines) << text;
      for (const auto& ev : events) {
        ASSERT_LT(ev.batch, kBatches) << text;
        ASSERT_LT(ev.edge, kEdges) << text;
        ASSERT_TRUE(std::isfinite(ev.factor) && ev.factor > 0.0) << text;
      }
      ++read[kind];
    } catch (const CheckError& err) {
      const std::string message = err.message();
      const std::string named = "sweep.txt:" + std::to_string(at + 1) + ": ";
      ASSERT_EQ(message.find(named + "bad update line"), 0U)
          << message << "\n" << text;
      ASSERT_EQ(message.find('\n'), std::string::npos) << message;
      ++rejected[kind];
    } catch (...) {
      FAIL() << "not a CheckError for kind " << kind << ":\n" << text;
    }
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    EXPECT_EQ(tried[kind], 500) << "kind " << kind;
  }
  // Only a long number can read, and only as a factor; every other
  // mutation is rejected.
  for (const int kind : {0, 1, 2, 3, 5, 6, 7}) {
    EXPECT_EQ(rejected[kind], 500) << "kind " << kind;
  }
  EXPECT_GT(rejected[4], 280);
  EXPECT_GT(read[4], 120);
}

}  // namespace
}  // namespace pmte
