// Serving-layer suite: the flat FrtIndex must answer exactly what the
// source FrtTree answers (bit-for-bit — the index copies the tree's
// LCA-level distance table instead of re-deriving floating-point sums),
// the ensemble policies must match brute-force folds over the per-tree
// values, persisted ensembles must round-trip exactly, and batch serving
// must be bit-identical across thread counts and build parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/frt/pipelines.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/serve/workloads.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

constexpr std::size_t kCorpusSize = 50;
constexpr std::uint64_t kCorpusSeed = 7001;  // same corpus as frt_properties

/// Every vertex's ancestor row, climbed along the tree's parent links.
std::vector<std::vector<FrtTree::NodeId>> ancestor_rows(const FrtTree& t) {
  std::vector<std::vector<FrtTree::NodeId>> rows;
  for (Vertex v = 0; v < t.num_leaves(); ++v) {
    rows.push_back(test::ancestor_row(t, v));
  }
  return rows;
}

TEST(FrtIndex, BitIdenticalToTreeOnPropertyCorpus) {
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto idx = serve::FrtIndex::build(s.tree);
    ASSERT_EQ(idx.num_leaves(), c.graph.num_vertices()) << c.name;
    EXPECT_EQ(idx.num_nodes(), s.tree.num_nodes()) << c.name;
    EXPECT_EQ(idx.num_levels(), s.tree.num_levels()) << c.name;
    const Vertex n = c.graph.num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u; v < n; ++v) {
        const Weight dt = s.tree.distance(u, v);
        const Weight di = idx.distance(u, v);
        // Bit-for-bit: both read the same cached LCA-level table.
        EXPECT_EQ(dt, di) << c.name << " pair " << u << "-" << v;
        EXPECT_EQ(di, idx.distance(v, u)) << c.name << " symmetry";
      }
    }
  }
}

TEST(FrtIndex, MatchesBruteForceTreeMetricAndLca) {
  // The LCA level from Section 7.1's definition (exact APSP, the order,
  // the scales): one plus the highest level at which two tuples differ.
  // The tree and the index must serve exactly that level's distance, and
  // the tree's LCA is the node the ancestor rows hold there, at that
  // level.
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto idx = serve::FrtIndex::build(s.tree);
    const auto ref = test::brute_force_tuples(c.graph, s.order, s.tree);
    const auto rows = ancestor_rows(s.tree);
    const Vertex n = c.graph.num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        const unsigned lca = ref.lca_level(u, v);
        EXPECT_EQ(s.tree.distance(u, v), s.tree.distance_at_lca_level(lca))
            << c.name << " pair " << u << "-" << v;
        EXPECT_EQ(idx.lca_level(u, v), lca)
            << c.name << " pair " << u << "-" << v;
        EXPECT_EQ(s.tree.lca(u, v), rows[u][lca])
            << c.name << " pair " << u << "-" << v;
        EXPECT_EQ(s.tree.level(s.tree.lca(u, v)), lca)
            << c.name << " pair " << u << "-" << v;
      }
    }
  }
}

TEST(FrtIndex, RowsAreLeafToRootPaths) {
  // The leaf-to-root path of v is the nodes of v's tuple suffixes
  // bottom-up (§7.1): two paths share their level-l node exactly when the
  // tuples, computed from the definition, agree from level l upwards.
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto ref = test::brute_force_tuples(c.graph, s.order, s.tree);
    const auto rows = ancestor_rows(s.tree);
    const unsigned levels = s.tree.num_levels();
    const Vertex n = c.graph.num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        bool suffixes_agree = true;
        for (unsigned l = levels; l-- > 0;) {
          suffixes_agree =
              suffixes_agree && ref.tuple(u)[l] == ref.tuple(v)[l];
          EXPECT_EQ(rows[u][l] == rows[v][l], suffixes_agree)
              << c.name << " pair " << u << "-" << v << " level " << l;
        }
      }
    }
  }
}

TEST(FrtIndex, CodesAgreeWithTreeRowsOnEveryPipeline) {
  // The index keeps one LCA code per vertex and counts the nodes the codes
  // describe.  Whatever pipeline sampled the tree, the index's LCA level
  // must be the number of levels at which two ancestor rows (climbed along
  // the tree's parent links) differ, the tree's LCA the row entry there,
  // each row entry's level (the tree's) its position, and the distance the
  // tree's own, bit for bit.
  const auto corpus = test::small_graph_corpus(kCorpusSize, kCorpusSeed);
  const struct {
    const char* name;
    FrtSample (*sample)(const Graph&, Rng&, const FrtOptions&);
  } kPipelines[] = {{"direct", sample_frt_direct},
                    {"oracle", sample_frt_oracle},
                    {"sequential", sample_frt_sequential}};
  for (const auto& c : corpus) {
    for (const auto& pipeline : kPipelines) {
      Rng rng(c.seed);
      const auto s = pipeline.sample(c.graph, rng, {});
      const auto idx = serve::FrtIndex::build(s.tree);
      const std::string where = c.name + " " + pipeline.name;
      ASSERT_EQ(idx.num_nodes(), s.tree.num_nodes()) << where;
      const unsigned levels = s.tree.num_levels();
      const Vertex n = c.graph.num_vertices();
      const auto rows = ancestor_rows(s.tree);
      for (Vertex v = 0; v < n; ++v) {
        for (unsigned l = 0; l < levels; ++l) {
          EXPECT_EQ(s.tree.level(rows[v][l]), l)
              << where << " node " << rows[v][l];
        }
      }
      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = 0; v < n; ++v) {
          const auto& ru = rows[u];
          const auto& rv = rows[v];
          unsigned differ = 0;
          for (unsigned l = 0; l < levels; ++l) differ += ru[l] != rv[l];
          EXPECT_EQ(idx.lca_level(u, v), differ)
              << where << " pair " << u << "-" << v;
          EXPECT_EQ(s.tree.lca(u, v), ru[differ])
              << where << " pair " << u << "-" << v;
          EXPECT_EQ(s.tree.distance(u, v), idx.distance(u, v))
              << where << " pair " << u << "-" << v;
        }
      }
    }
  }
}

TEST(FrtIndex, SingleVertexTree) {
  std::vector<DistanceMap> lists{DistanceMap::singleton(0, 0.0)};
  const auto order = VertexOrder::identity(1);
  const auto t = FrtTree::build(lists, order, 1.5, 1.0);
  const auto idx = serve::FrtIndex::build(t);
  EXPECT_EQ(idx.num_leaves(), 1U);
  EXPECT_EQ(idx.num_nodes(), t.num_nodes());
  EXPECT_EQ(idx.lca_level(0, 0), 0U);
  EXPECT_EQ(idx.distance(0, 0), 0.0);
}

/// Serialized bytes of an ensemble.
std::string save_bytes(const serve::FrtEnsemble& e) {
  std::ostringstream buf(std::ios::binary);
  e.save(buf);
  return buf.str();
}

serve::FrtEnsemble load_bytes(const std::string& bytes) {
  return serve::FrtEnsemble::load(std::as_bytes(std::span(bytes)));
}

/// An index persists only inside an ensemble artefact: wrap it alone.
serve::FrtEnsemble one_index_ensemble(serve::FrtIndex idx) {
  std::vector<serve::FrtIndex> indices;
  indices.push_back(std::move(idx));
  return serve::FrtEnsemble::assemble(std::move(indices), 1, 2);
}

TEST(FrtIndex, SaveLoadRoundTripIsExact) {
  const auto corpus = test::serve_graph_corpus(4, 909);
  for (const auto& c : corpus) {
    Rng rng(c.seed);
    const auto s = sample_frt_direct(c.graph, rng);
    const auto idx = serve::FrtIndex::build(s.tree);
    const std::string bytes = save_bytes(one_index_ensemble(idx));
    const auto reloaded = load_bytes(bytes);
    ASSERT_EQ(reloaded.num_trees(), 1u) << c.name;
    const auto& loaded = reloaded.index(0);
    EXPECT_TRUE(loaded == idx) << c.name;
    // Re-saving the loaded index reproduces the bytes exactly.
    EXPECT_EQ(save_bytes(reloaded), bytes) << c.name;
    // And queries agree bit-for-bit.
    const Vertex n = c.graph.num_vertices();
    Rng qrng(c.seed ^ 0xabcdULL);
    for (int i = 0; i < 200; ++i) {
      const auto u = static_cast<Vertex>(qrng.below(n));
      const auto v = static_cast<Vertex>(qrng.below(n));
      EXPECT_EQ(loaded.distance(u, v), idx.distance(u, v)) << c.name;
    }
  }
}

TEST(FrtIndex, LoadRejectsGarbage) {
  EXPECT_THROW((void)load_bytes(""), std::logic_error);
  EXPECT_THROW(
      (void)load_bytes("definitely not a PMTE index file, padded to be long "
                       "enough"),
      std::logic_error);

  // Truncated but well-prefixed input must throw, not misparse.
  std::vector<DistanceMap> lists{DistanceMap::singleton(0, 0.0)};
  const auto order = VertexOrder::identity(1);
  const std::string bytes = save_bytes(one_index_ensemble(
      serve::FrtIndex::build(FrtTree::build(lists, order, 1.5, 1.0))));
  ASSERT_NO_THROW((void)load_bytes(bytes));
  EXPECT_THROW((void)load_bytes(bytes.substr(0, bytes.size() / 2)),
               std::logic_error);

  // So must bytes after the index.
  EXPECT_THROW((void)load_bytes(bytes + '\0'), std::logic_error);
}

TEST(FrtIndex, LoadRejectsUnsupportedFormatVersion) {
  // The reader refuses every version but kFormatVersion (a v1 file would
  // misparse as the current layout) in the embedded index header too, not
  // only in the ensemble's.
  const auto g = test::support_graph("gnm", 24, 33);
  Rng rng(33);
  const auto s = sample_frt_direct(g, rng);
  std::string bytes =
      save_bytes(one_index_ensemble(serve::FrtIndex::build(s.tree)));
  // Ensemble prelude (40 bytes), then the index header: magic(8) + endian
  // probe(4) + version(4).
  constexpr std::size_t kIndexVersionOffset = 40 + 12;
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kIndexVersionOffset, sizeof(version));
  ASSERT_EQ(version, serve::kFormatVersion) << "layout drifted; fix offset";
  const std::uint32_t old_version = 1;
  std::memcpy(bytes.data() + kIndexVersionOffset, &old_version,
              sizeof(old_version));
  try {
    (void)load_bytes(bytes);
    ADD_FAILURE() << "loaded an index stamped v1";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("unsupported format version 1"),
              std::string::npos)
        << err.what();
  }
}

// --- Ensemble -------------------------------------------------------------

serve::EnsembleOptions small_ensemble_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  // The direct pipeline keeps corpus-wide ensemble tests fast; oracle
  // coverage runs on a slice below.
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

TEST(FrtEnsemble, PoliciesMatchBruteForceFolds) {
  const auto corpus = test::serve_graph_corpus(6, 911);
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(5));
    const Vertex n = c.graph.num_vertices();
    Rng qrng(c.seed + 17);
    for (int i = 0; i < 300; ++i) {
      const auto u = static_cast<Vertex>(qrng.below(n));
      const auto v = static_cast<Vertex>(qrng.below(n));
      std::vector<Weight> per_tree;
      for (std::size_t t = 0; t < e.num_trees(); ++t) {
        per_tree.push_back(e.index(t).distance(u, v));
      }
      const Weight ref_min =
          *std::min_element(per_tree.begin(), per_tree.end());
      std::nth_element(per_tree.begin(),
                       per_tree.begin() + per_tree.size() / 2,
                       per_tree.end());
      const Weight ref_median = per_tree[per_tree.size() / 2];
      EXPECT_EQ(e.query(u, v, serve::AggregatePolicy::min), ref_min)
          << c.name;
      EXPECT_EQ(e.query(u, v, serve::AggregatePolicy::median), ref_median)
          << c.name;
    }
  }
}

TEST(FrtEnsemble, MinPolicyDominatesAndTightensWithMoreTrees) {
  // Every tree dominates dist_G, so min over trees still does — and more
  // trees can only lower (never raise) the served min.
  const auto corpus = test::serve_graph_corpus(3, 912);
  for (const auto& c : corpus) {
    const auto big =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(8));
    const Vertex n = c.graph.num_vertices();
    Rng qrng(c.seed + 5);
    for (int i = 0; i < 200; ++i) {
      const auto u = static_cast<Vertex>(qrng.below(n));
      const auto v = static_cast<Vertex>(qrng.below(n));
      Weight min4 = big.index(0).distance(u, v);
      for (std::size_t t = 1; t < 4; ++t) {
        min4 = std::min(min4, big.index(t).distance(u, v));
      }
      const Weight min8 = big.query(u, v, serve::AggregatePolicy::min);
      EXPECT_LE(min8, min4) << c.name;
      if (u != v) {
        EXPECT_GT(min8, 0.0) << c.name;
      }
    }
  }
}

TEST(FrtEnsemble, OraclePipelineEnsembleWorks) {
  const auto corpus = test::serve_graph_corpus(2, 913);
  for (const auto& c : corpus) {
    serve::EnsembleOptions opts;
    opts.trees = 3;
    opts.pipeline = serve::EnsemblePipeline::oracle;
    const auto e = serve::FrtEnsemble::build(c.graph, c.seed, opts);
    EXPECT_EQ(e.num_trees(), 3U) << c.name;
    EXPECT_EQ(e.num_vertices(), c.graph.num_vertices()) << c.name;
    EXPECT_GT(e.build_stats().relaxations, 0U) << c.name;
    EXPECT_GT(e.query(0, c.graph.num_vertices() - 1,
                      serve::AggregatePolicy::min),
              0.0)
        << c.name;
  }
}

TEST(FrtEnsemble, ReproducibleAcrossBuildParallelism) {
  // Per-tree RNG streams split from the master seed, so the ensemble is a
  // pure function of (graph, seed) — independent of build order and thread
  // count.  At 1 thread parallel_for runs the tree slots in order, which
  // makes that build the serial reference.
  const auto corpus = test::serve_graph_corpus(3, 914);
  const int saved_threads = num_threads();
  for (const auto& c : corpus) {
    const auto opts = small_ensemble_options(4);
    set_num_threads(1);
    const auto serial = serve::FrtEnsemble::build(c.graph, c.seed, opts);
    for (const int threads : {2, 8}) {
      set_num_threads(threads);
      const auto parallel = serve::FrtEnsemble::build(c.graph, c.seed, opts);
      EXPECT_TRUE(parallel == serial)
          << c.name << " at " << threads << " threads";
    }
    set_num_threads(saved_threads);
  }
}

TEST(FrtEnsemble, BatchMatchesSingleQueriesAndIsThreadDeterministic) {
  const auto corpus = test::serve_graph_corpus(3, 915);
  const int saved_threads = num_threads();
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(5));
    Rng wrng(c.seed + 99);
    serve::WorkloadOptions wopts;
    wopts.pairs = 2000;
    const auto pairs = serve::make_workload(
        c.graph, serve::WorkloadKind::uniform, wopts, wrng);

    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      std::vector<Weight> reference;
      auto ref_stats = e.query_batch(pairs, policy, reference);
      EXPECT_EQ(ref_stats.pairs, pairs.size());
      EXPECT_EQ(ref_stats.tree_lookups, pairs.size() * e.num_trees());
      for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(reference[i],
                  e.query(pairs[i].first, pairs[i].second, policy))
            << c.name << " pair " << i;
      }
      for (const int threads : {1, 2, 8}) {
        set_num_threads(threads);
        std::vector<Weight> out;
        const auto stats = e.query_batch(pairs, policy, out);
        EXPECT_EQ(out, reference)
            << c.name << " at " << threads << " threads";
        EXPECT_EQ(stats.pairs, ref_stats.pairs);
        EXPECT_EQ(stats.tree_lookups, ref_stats.tree_lookups);
        EXPECT_EQ(stats.lca_probes, ref_stats.lca_probes);
      }
      set_num_threads(saved_threads);
    }
  }
}

TEST(FrtEnsemble, SaveLoadRoundTripIsExact) {
  const auto corpus = test::serve_graph_corpus(2, 916);
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(4));
    const std::string bytes = save_bytes(e);
    const auto loaded = load_bytes(bytes);
    EXPECT_TRUE(loaded == e) << c.name;
    EXPECT_EQ(loaded.master_seed(), e.master_seed()) << c.name;
    EXPECT_EQ(save_bytes(loaded), bytes) << c.name;

    Rng wrng(c.seed + 3);
    serve::WorkloadOptions wopts;
    wopts.pairs = 500;
    const auto pairs = serve::make_workload(
        c.graph, serve::WorkloadKind::zipf, wopts, wrng);
    std::vector<Weight> a, b;
    e.query_batch(pairs, serve::AggregatePolicy::median, a);
    loaded.query_batch(pairs, serve::AggregatePolicy::median, b);
    EXPECT_EQ(a, b) << c.name;
  }
}

TEST(FrtEnsemble, FingerprintIdentifiesTheBuildGraph) {
  // The persisted fingerprint lets loaders refuse to serve a different
  // graph's distances (serve_queries --load hard-fails on mismatch).
  const auto a = test::support_graph("gnm", 64, 21);
  const auto b = test::support_graph("gnm", 64, 22);   // same family/size
  const auto c = test::support_graph("grid", 64, 21);  // same seed
  EXPECT_EQ(serve::FrtEnsemble::fingerprint(a),
            serve::FrtEnsemble::fingerprint(a));
  EXPECT_NE(serve::FrtEnsemble::fingerprint(a),
            serve::FrtEnsemble::fingerprint(b));
  EXPECT_NE(serve::FrtEnsemble::fingerprint(a),
            serve::FrtEnsemble::fingerprint(c));

  const auto e = serve::FrtEnsemble::build(a, 21, small_ensemble_options(2));
  EXPECT_EQ(e.graph_fingerprint(), serve::FrtEnsemble::fingerprint(a));
  EXPECT_EQ(load_bytes(save_bytes(e)).graph_fingerprint(),
            e.graph_fingerprint());
}

TEST(FrtEnsemble, LoadRejectsCorruptLengthPrefix) {
  // A corrupt (not merely truncated) length field must be rejected before
  // any allocation is attempted.
  const auto corpus = test::serve_graph_corpus(1, 919);
  const auto& c = corpus.front();
  const auto e =
      serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(2));
  std::string bytes = save_bytes(e);
  // The first index starts right after the ensemble header — magic(8) +
  // endian probe(4) + version(4) + seed(8) + fingerprint(8) + count(8) —
  // with its own magic block(16) and the widths' length prefix (8), whose
  // Λ u32 payload starts at the 64-byte boundary 64 with no padding.  The
  // next 8 bytes are the codes' length prefix — blow it up.
  const std::size_t len_off = 64 + 4 * std::size_t{e.index(0).num_levels()};
  // Large enough that len·8 bytes cannot fit in the file, small enough
  // that a missing pre-allocation guard would really try to allocate.
  const std::uint64_t absurd = 1ULL << 33;
  // Guard the offset arithmetic: the bytes being corrupted must currently
  // decode to the length of the code array (n × words).
  const std::uint64_t codes_len =
      std::uint64_t{e.index(0).num_leaves()} * e.index(0).code_words();
  std::uint64_t decoded = 0;
  std::memcpy(&decoded, bytes.data() + len_off, sizeof(decoded));
  ASSERT_EQ(decoded, codes_len) << "layout drifted; fix len_off";
  std::memcpy(bytes.data() + len_off, &absurd, sizeof(absurd));
  EXPECT_THROW((void)load_bytes(bytes), std::logic_error);
}

TEST(FrtEnsemble, LoadRejectsWrongArtefactKind) {
  // A bare index image is not an ensemble.
  const auto corpus = test::serve_graph_corpus(1, 917);
  const auto& c = corpus.front();
  const auto e =
      serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(2));
  std::ostringstream ibuf(std::ios::binary);
  serve::BinaryWriter w(ibuf);
  e.index(0).save_into(w);
  try {
    (void)load_bytes(ibuf.str());
    ADD_FAILURE() << "loaded a bare index image as an ensemble";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("bad magic"), std::string::npos)
        << err.what();
  }
}

// --- Hot-pair cache -------------------------------------------------------

TEST(HotPairCache, ServedValuesBitIdenticalCacheOnAndOff) {
  const auto corpus = test::serve_graph_corpus(4, 920);
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(5));
    for (const auto kind :
         {serve::WorkloadKind::zipf, serve::WorkloadKind::uniform}) {
      Rng wrng(c.seed + 31);
      serve::WorkloadOptions wopts;
      wopts.pairs = 3000;
      const auto pairs = serve::make_workload(c.graph, kind, wopts, wrng);
      for (const auto policy :
           {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
        std::vector<Weight> plain, cached;
        const auto ref = e.query_batch(pairs, policy, plain);
        serve::HotPairCache cache(1024);
        const auto st = e.query_batch(pairs, policy, cached, &cache);
        EXPECT_EQ(cached, plain)
            << c.name << " " << serve::workload_name(kind);
        EXPECT_EQ(st.pairs, ref.pairs);
        EXPECT_EQ(st.cache_hits + st.cache_misses, cache.stats().lookups);
        // The cache only ever removes lookups, never adds them.
        EXPECT_LE(st.tree_lookups, ref.tree_lookups) << c.name;
        EXPECT_LE(st.lca_probes, ref.lca_probes) << c.name;
        // A second pass over the same pairs serves every cacheable pair
        // from the warm cache (capacity permitting: conflicts stay
        // conflicts) — values still bit-identical.
        std::vector<Weight> warm;
        const auto st2 = e.query_batch(pairs, policy, warm, &cache);
        EXPECT_EQ(warm, plain) << c.name;
        EXPECT_GE(st2.cache_hits, st.cache_hits) << c.name;
        EXPECT_LE(st2.tree_lookups, st.tree_lookups) << c.name;
      }
    }
  }
}

TEST(HotPairCache, CountersAndValuesDeterministicAcrossThreads) {
  // Satellite requirement: hit/miss counters and served values are
  // bit-identical at 1/2/8 threads, cache on and off, over the corpus.
  const auto corpus = test::serve_graph_corpus(3, 921);
  const int saved_threads = num_threads();
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(4));
    Rng wrng(c.seed + 77);
    serve::WorkloadOptions wopts;
    wopts.pairs = 4000;
    const auto pairs = serve::make_workload(
        c.graph, serve::WorkloadKind::zipf, wopts, wrng);
    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      // Reference at the ambient thread count.
      serve::HotPairCache ref_cache(512);
      std::vector<Weight> ref_out;
      const auto ref = e.query_batch(pairs, policy, ref_out, &ref_cache);
      std::vector<Weight> ref_plain;
      const auto ref_plain_stats = e.query_batch(pairs, policy, ref_plain);
      for (const int threads : {1, 2, 8}) {
        set_num_threads(threads);
        serve::HotPairCache cache(512);
        std::vector<Weight> out;
        const auto st = e.query_batch(pairs, policy, out, &cache);
        EXPECT_EQ(out, ref_out) << c.name << " at " << threads << " threads";
        EXPECT_EQ(st.cache_hits, ref.cache_hits) << c.name;
        EXPECT_EQ(st.cache_misses, ref.cache_misses) << c.name;
        EXPECT_EQ(st.tree_lookups, ref.tree_lookups) << c.name;
        EXPECT_EQ(st.lca_probes, ref.lca_probes) << c.name;
        EXPECT_EQ(cache.stats().hits, ref_cache.stats().hits) << c.name;
        EXPECT_EQ(cache.stats().admissions, ref_cache.stats().admissions);
        EXPECT_EQ(cache.stats().conflicts, ref_cache.stats().conflicts);
        // Cache off at this thread count too.
        std::vector<Weight> plain;
        const auto pst = e.query_batch(pairs, policy, plain);
        EXPECT_EQ(plain, ref_plain) << c.name;
        EXPECT_EQ(pst.tree_lookups, ref_plain_stats.tree_lookups);
        EXPECT_EQ(out, plain) << c.name << " cache on vs off";
      }
      set_num_threads(saved_threads);
    }
  }
}

TEST(HotPairCache, FirstTouchAdmissionAndConflicts) {
  // Two pairs colliding in a 2-slot cache: the first keeps the slot, the
  // second bypasses forever (deterministic first-touch, no eviction).
  const auto g = test::support_graph("gnm", 64, 35);
  const auto e = serve::FrtEnsemble::build(g, 35, small_ensemble_options(3));
  serve::HotPairCache cache(2);
  EXPECT_EQ(cache.capacity(), 2U);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex v = 1; v < 40; ++v) pairs.emplace_back(0, v);
  std::vector<Weight> out, plain;
  const auto st =
      e.query_batch(pairs, serve::AggregatePolicy::min, out, &cache);
  (void)e.query_batch(pairs, serve::AggregatePolicy::min, plain);
  EXPECT_EQ(out, plain);
  // 39 distinct pairs into 2 slots: 2 admissions, the rest conflicts.
  EXPECT_EQ(cache.stats().admissions, 2U);
  EXPECT_EQ(cache.stats().conflicts, pairs.size() - 2);
  EXPECT_EQ(st.cache_hits, 0U);
  // Replay: the two admitted pairs hit, everything else still conflicts.
  std::vector<Weight> again;
  const auto st2 =
      e.query_batch(pairs, serve::AggregatePolicy::min, again, &cache);
  EXPECT_EQ(again, plain);
  EXPECT_EQ(st2.cache_hits, 2U);
  // clear() resets contents and counters.
  cache.clear();
  EXPECT_EQ(cache.stats().lookups, 0U);
  std::vector<Weight> fresh;
  const auto st3 =
      e.query_batch(pairs, serve::AggregatePolicy::min, fresh, &cache);
  EXPECT_EQ(fresh, plain);
  EXPECT_EQ(st3.cache_hits, 0U);
}

TEST(HotPairCache, ReuseAcrossEnsemblesCannotServeStaleDistances) {
  // The batch salt folds in the ensemble's seed + graph fingerprint, so a
  // cache warmed by ensemble A can only miss (stale slots conflict) when
  // handed to ensemble B — it must never return A's doubles for B.
  const auto g = test::support_graph("gnm", 96, 44);
  const auto a = serve::FrtEnsemble::build(g, 44, small_ensemble_options(3));
  const auto b = serve::FrtEnsemble::build(g, 45, small_ensemble_options(3));
  Rng wrng(91);
  serve::WorkloadOptions wopts;
  wopts.pairs = 2000;
  const auto pairs =
      serve::make_workload(g, serve::WorkloadKind::zipf, wopts, wrng);
  serve::HotPairCache cache(4096);
  std::vector<Weight> from_a, from_b, b_plain;
  (void)a.query_batch(pairs, serve::AggregatePolicy::min, from_a, &cache);
  // B may hit its *own* same-batch fills (Zipf repeats pairs), but every
  // served value must be B's — bit-identical to the uncached run.
  (void)b.query_batch(pairs, serve::AggregatePolicy::min, from_b, &cache);
  (void)b.query_batch(pairs, serve::AggregatePolicy::min, b_plain);
  EXPECT_EQ(from_b, b_plain);
  EXPECT_NE(from_a, from_b) << "distinct seeds should serve distinct values";
}

TEST(HotPairCache, KeyNormalisesPairOrder) {
  EXPECT_EQ(serve::HotPairCache::pair_key(3, 9, 0),
            serve::HotPairCache::pair_key(9, 3, 0));
  EXPECT_NE(serve::HotPairCache::pair_key(3, 9, 0),
            serve::HotPairCache::pair_key(3, 8, 0));
  // Distinct salts (aggregation policies) never share entries.
  EXPECT_NE(serve::HotPairCache::pair_key(3, 9, 0),
            serve::HotPairCache::pair_key(3, 9, 1));
}

// --- Stretch report -------------------------------------------------------

TEST(StretchReport, MatchesNaiveAllPairsEvaluation) {
  const auto corpus = test::serve_graph_corpus(3, 922);
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(4));
    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      const auto q = serve::measure_stretch_quality(c.graph, e, policy);
      // Naive reference: all pairs, exact Dijkstra, direct queries.
      const Vertex n = c.graph.num_vertices();
      double sum_exact = 0.0, sum_served = 0.0, sum_ratio = 0.0;
      double max_ratio = 0.0, min_ratio = inf_weight();
      std::size_t pairs = 0;
      for (Vertex u = 0; u < n; ++u) {
        const auto sp = dijkstra(c.graph, u);
        for (Vertex v = u + 1; v < n; ++v) {
          if (!is_finite(sp.dist[v]) || sp.dist[v] <= 0.0) continue;
          const double served = e.query(u, v, policy);
          const double ratio = served / sp.dist[v];
          sum_exact += sp.dist[v];
          sum_served += served;
          sum_ratio += ratio;
          max_ratio = std::max(max_ratio, ratio);
          min_ratio = std::min(min_ratio, ratio);
          ++pairs;
        }
      }
      ASSERT_GT(pairs, 0U) << c.name;
      EXPECT_EQ(q.pairs, pairs) << c.name;
      // max/min are accumulation-order independent: exact equality.  The
      // sums fold per-row then across rows, so compare to tight relative
      // tolerance.
      EXPECT_EQ(q.max_stretch, max_ratio) << c.name;
      EXPECT_EQ(q.min_stretch, min_ratio) << c.name;
      EXPECT_NEAR(q.sum_exact, sum_exact, 1e-9 * sum_exact) << c.name;
      EXPECT_NEAR(q.sum_served, sum_served, 1e-9 * sum_served) << c.name;
      EXPECT_NEAR(q.weighted_stretch, sum_served / sum_exact,
                  1e-12 * (sum_served / sum_exact))
          << c.name;
      EXPECT_NEAR(q.mean_stretch,
                  sum_ratio / static_cast<double>(pairs), 1e-9)
          << c.name;
      // Dominating policies serve dominating values.
      EXPECT_GE(q.min_stretch, 1.0) << c.name;
      EXPECT_GE(q.weighted_stretch, 1.0) << c.name;
      EXPECT_LE(q.weighted_stretch, q.max_stretch) << c.name;
    }
  }
}

TEST(StretchReport, DeterministicAcrossThreads) {
  const auto corpus = test::serve_graph_corpus(2, 923);
  const int saved_threads = num_threads();
  for (const auto& c : corpus) {
    const auto e =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(3));
    const auto ref = serve::measure_stretch_quality(
        c.graph, e, serve::AggregatePolicy::min);
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      const auto q = serve::measure_stretch_quality(
          c.graph, e, serve::AggregatePolicy::min);
      EXPECT_EQ(q.pairs, ref.pairs) << c.name;
      EXPECT_EQ(q.weighted_stretch, ref.weighted_stretch) << c.name;
      EXPECT_EQ(q.mean_stretch, ref.mean_stretch) << c.name;
      EXPECT_EQ(q.max_stretch, ref.max_stretch) << c.name;
      EXPECT_EQ(q.min_stretch, ref.min_stretch) << c.name;
      EXPECT_EQ(q.sum_exact, ref.sum_exact) << c.name;
      EXPECT_EQ(q.sum_served, ref.sum_served) << c.name;
    }
    set_num_threads(saved_threads);
  }
}

TEST(StretchReport, MinPolicyNeverWorseThanSingleTree) {
  // min over k trees can only improve on the first tree alone — both the
  // weighted and the max stretch must be ≤ the 1-tree ensemble's.
  const auto corpus = test::serve_graph_corpus(2, 924);
  for (const auto& c : corpus) {
    const auto big =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(6));
    const auto one =
        serve::FrtEnsemble::build(c.graph, c.seed, small_ensemble_options(1));
    const auto qb = serve::measure_stretch_quality(
        c.graph, big, serve::AggregatePolicy::min);
    const auto q1 = serve::measure_stretch_quality(
        c.graph, one, serve::AggregatePolicy::min);
    EXPECT_LE(qb.weighted_stretch, q1.weighted_stretch) << c.name;
    EXPECT_LE(qb.max_stretch, q1.max_stretch) << c.name;
  }
}

// --- Workloads & seeding --------------------------------------------------

TEST(Workloads, AreDeterministicAndInRange) {
  const auto corpus = test::serve_graph_corpus(2, 918);
  for (const auto& c : corpus) {
    for (const auto kind :
         {serve::WorkloadKind::uniform, serve::WorkloadKind::bfs_local,
          serve::WorkloadKind::zipf}) {
      serve::WorkloadOptions opts;
      opts.pairs = 777;
      Rng a(c.seed), b(c.seed);
      const auto pa = serve::make_workload(c.graph, kind, opts, a);
      const auto pb = serve::make_workload(c.graph, kind, opts, b);
      EXPECT_EQ(pa, pb) << c.name << " " << serve::workload_name(kind);
      EXPECT_EQ(pa.size(), opts.pairs);
      for (const auto& [u, v] : pa) {
        EXPECT_LT(u, c.graph.num_vertices());
        EXPECT_LT(v, c.graph.num_vertices());
      }
    }
  }
}

TEST(Workloads, ZipfIsSkewedUniformIsNot) {
  const auto g = test::support_graph("gnm", 256, 4242);
  serve::WorkloadOptions opts;
  opts.pairs = 20000;
  opts.zipf_s = 1.2;
  Rng rng(5);
  const auto zipf =
      serve::make_workload(g, serve::WorkloadKind::zipf, opts, rng);
  std::vector<std::size_t> freq(g.num_vertices(), 0);
  for (const auto& [u, v] : zipf) {
    ++freq[u];
    ++freq[v];
  }
  std::sort(freq.rbegin(), freq.rend());
  const auto total = 2 * opts.pairs;
  // The hottest 16 of 256 vertices should carry far more than their
  // uniform share (16/256 ≈ 6%).
  std::size_t hot = 0;
  for (std::size_t i = 0; i < 16; ++i) hot += freq[i];
  EXPECT_GT(hot, total / 3);
}

TEST(SplitSeed, StreamsAreDistinctAndOrderFree) {
  // Documented scheme: stream i is a pure function of (master, i).
  EXPECT_EQ(split_seed(42, 7), split_seed(42, 7));
  EXPECT_NE(split_seed(42, 7), split_seed(42, 8));
  EXPECT_NE(split_seed(42, 7), split_seed(43, 7));
  EXPECT_NE(split_seed(42, 0), 42U);  // stream 0 ≠ master itself
  // No short-range collisions over a realistic ensemble size.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t t = 0; t < 4096; ++t) seeds.push_back(split_seed(1, t));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
}  // namespace pmte
