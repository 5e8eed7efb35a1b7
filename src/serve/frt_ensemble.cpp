#include "src/serve/frt_ensemble.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "src/obs/obs.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/serialize.hpp"
#include "src/util/assertions.hpp"
#include "src/util/timer.hpp"

namespace pmte::serve {

namespace {

/// Ensemble-wide instruments, bound once on first use.  batch_pairs is a
/// logical-value histogram (deterministic bucket counts); *_duration_ns
/// histograms are wall-time and informational only.
struct EnsembleObs {
  obs::Counter& builds;
  obs::Counter& loads_copied;
  obs::Counter& loads_mapped;
  obs::Histogram& build_ns;
  obs::Histogram& batch_pairs;
  obs::Histogram& batch_ns;
};

EnsembleObs& ensemble_obs() {
  auto& reg = obs::registry();
  static EnsembleObs o{
      reg.counter("pmte_ensemble_builds_total", {}, "FrtEnsemble builds"),
      reg.counter("pmte_ensemble_loads_copied_total", {},
                  "Ensemble loads that copy arrays out of an in-memory "
                  "image"),
      reg.counter("pmte_ensemble_loads_mapped_total", {},
                  "Ensemble loads that serve zero-copy from a file "
                  "mapping"),
      reg.histogram("pmte_ensemble_build_duration_ns", {},
                    "Ensemble build wall time in ns (informational)"),
      reg.histogram("pmte_serve_batch_pairs", {},
                    "query_batch size in pairs (logical value — "
                    "deterministic bucket counts)"),
      reg.histogram("pmte_serve_batch_duration_ns", {},
                    "query_batch wall time in ns (informational)"),
  };
  return o;
}

/// The min-over-k / median-over-k aggregate for one u ≠ v pair: one
/// plain loop over the trees reads the pair's two ancestor rows per tree
/// and writes the k distances to `dist` in tree order, then the policy
/// folds them.  Each per-tree value equals FrtIndex::distance, so serving
/// is bit-identical to the scalar path.
[[nodiscard]] Weight aggregate(const std::vector<FrtIndex>& trees, Vertex u,
                               Vertex v, AggregatePolicy policy,
                               Weight* dist) {
  const std::size_t k = trees.size();
  for (std::size_t t = 0; t < k; ++t) {
    const FrtIndex& idx = trees[t];
    dist[t] = idx.distance_at_lca_level(
        idx.differing_levels(idx.row(u), idx.row(v)));
  }
  if (policy == AggregatePolicy::min) {
    Weight best = dist[0];
    for (std::size_t t = 1; t < k; ++t) best = std::min(best, dist[t]);
    return best;
  }
  // Upper median: stays a per-tree value (no averaging), and every tree
  // dominates dist_G, so the served value does too.
  std::nth_element(dist, dist + k / 2, dist + k);
  return dist[k / 2];
}

}  // namespace

AggregatePolicy parse_policy(const std::string& name) {
  if (name == "min") return AggregatePolicy::min;
  if (name == "median") return AggregatePolicy::median;
  PMTE_CHECK(false, "unknown aggregation policy: " + name +
                        " (expected min|median)");
  return AggregatePolicy::min;  // unreachable
}

const char* policy_name(AggregatePolicy policy) noexcept {
  return policy == AggregatePolicy::min ? "min" : "median";
}

std::uint64_t FrtEnsemble::fingerprint(const Graph& g) {
  std::uint64_t hash = fnv1a_fold(kFnv1aInit, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : g.neighbors(v)) {
      hash = fnv1a_fold(hash, e.to);
      std::uint64_t bits;
      std::memcpy(&bits, &e.weight, sizeof(bits));
      hash = fnv1a_fold(hash, bits);
    }
  }
  return hash;
}

std::uint64_t FrtEnsemble::registry_fingerprint() const noexcept {
  return serve::registry_fingerprint(kEnsembleMagic, master_seed_,
                                     graph_fingerprint_, indices_.size());
}

FrtEnsemble FrtEnsemble::build(const Graph& g, std::uint64_t master_seed,
                               const EnsembleOptions& opts) {
  PMTE_CHECK(opts.trees >= 1, "FrtEnsemble: needs at least one tree");
  PMTE_CHECK(g.num_vertices() >= 1, "FrtEnsemble: empty graph");
  PMTE_OBS_SPAN("ensemble.build", static_cast<std::int64_t>(opts.trees),
                "trees", &ensemble_obs().build_ns);
  if (obs::metrics_on()) ensemble_obs().builds.add(1);
  const Timer timer;
  const WorkDepthScope scope;

  FrtEnsemble e;
  e.master_seed_ = master_seed;
  e.graph_fingerprint_ = fingerprint(g);
  e.indices_.resize(opts.trees);

  // Stream 0 of the master seed draws the shared H; streams 1..k seed the
  // per-tree β/permutation draws (ensemble_simulated_graph).
  std::optional<SimulatedGraph> h;
  if (opts.pipeline == EnsemblePipeline::oracle) {
    h.emplace(ensemble_simulated_graph(g, master_seed, opts.frt));
  }

  std::vector<std::uint64_t> iterations(opts.trees, 0);
  auto build_one = [&](std::size_t t) {
    PMTE_OBS_SPAN("ensemble.build_tree", static_cast<std::int64_t>(t),
                  "tree");
    Rng rng(split_seed(master_seed, 1 + t));
    FrtSample sample = [&] {
      switch (opts.pipeline) {
        case EnsemblePipeline::oracle:
          return sample_frt_oracle_on(*h, rng, opts.frt);
        case EnsemblePipeline::direct:
          return sample_frt_direct(g, rng, opts.frt);
        case EnsemblePipeline::sequential:
        default:
          return sample_frt_sequential(g, rng, opts.frt);
      }
    }();
    iterations[t] = sample.iterations;
    e.indices_[t] = FrtIndex::build(sample.tree);
  };
  // Tree slots are independent (own RNG stream, write only their own
  // index), so any schedule produces the same ensemble; the per-tree
  // engine loops detect the enclosing region and run serially.
  parallel_for(opts.trees, build_one, /*grain=*/1);

  for (std::size_t t = 0; t < opts.trees; ++t) {
    e.stats_.iterations += iterations[t];
    e.stats_.index_nodes += e.indices_[t].num_nodes();
  }
  e.stats_.work = scope.work_delta();
  e.stats_.relaxations = scope.relaxations_delta();
  e.stats_.edges_touched = scope.edges_touched_delta();
  e.stats_.seconds = timer.seconds();
  return e;
}

FrtEnsemble FrtEnsemble::assemble(std::vector<FrtIndex> indices,
                                  std::uint64_t master_seed,
                                  std::uint64_t graph_fingerprint) {
  PMTE_CHECK(!indices.empty(), "FrtEnsemble::assemble: needs >= 1 index");
  for (const auto& idx : indices) {
    PMTE_CHECK(idx.num_leaves() == indices.front().num_leaves(),
               "FrtEnsemble::assemble: indices disagree on the vertex set");
  }
  FrtEnsemble e;
  e.indices_ = std::move(indices);
  e.master_seed_ = master_seed;
  e.graph_fingerprint_ = graph_fingerprint;
  return e;
}

Weight FrtEnsemble::query(Vertex u, Vertex v, AggregatePolicy policy) const {
  PMTE_CHECK(!indices_.empty(), "FrtEnsemble::query: empty ensemble");
  PMTE_CHECK(u < num_vertices() && v < num_vertices(),
             "FrtEnsemble::query: vertex out of range");
  if (u == v) return 0.0;
  std::vector<Weight> dist(indices_.size());
  return aggregate(indices_, u, v, policy, dist.data());
}

FrtEnsemble::BatchStats FrtEnsemble::query_batch(
    const std::vector<std::pair<Vertex, Vertex>>& pairs,
    AggregatePolicy policy, std::vector<Weight>& out,
    HotPairCache* cache) const {
  PMTE_CHECK(!indices_.empty(), "FrtEnsemble::query_batch: empty ensemble");
  const std::size_t q = pairs.size();
  const std::size_t k = indices_.size();
  PMTE_OBS_SPAN("ensemble.query_batch", static_cast<std::int64_t>(q),
                "pairs", &ensemble_obs().batch_ns);
  if (obs::metrics_on()) ensemble_obs().batch_pairs.record(q);
  out.assign(q, 0.0);

  // Validate every pair *before* touching the cache or the parallel
  // phases: probe() claims slots at classification time, and the kernel
  // below reads the ancestor rows unchecked.
  const auto n = static_cast<Vertex>(indices_.front().num_leaves());
  for (const auto& [u, v] : pairs) {
    PMTE_CHECK(u < n && v < n,
               "FrtEnsemble::query_batch: vertex out of range");
  }

  // Kernel workspace: one k-slot slice of distances per thread, allocated
  // once per batch.
  const auto nthreads =
      static_cast<std::size_t>(std::max(num_threads(), 1));
  std::vector<Weight> dist_ws(nthreads * k);
  auto compute = [&](Vertex u, Vertex v) -> Weight {
    if (u == v) return 0.0;
    const auto ti = static_cast<std::size_t>(thread_index());
    return aggregate(indices_, u, v, policy, dist_ws.data() + ti * k);
  };

  BatchStats stats;
  stats.pairs = q;

  if (cache == nullptr) {
    parallel_for_balanced(
        q, [k](std::size_t) { return k; },
        [&](std::size_t i) {
          out[i] = compute(pairs[i].first, pairs[i].second);
        });
    // Logical costs: every pair consults every tree; each u ≠ v lookup
    // reads exactly kLcaProbesPerQuery ancestor rows (u==v short-circuits).
    stats.tree_lookups = static_cast<std::uint64_t>(q) * k;
    std::uint64_t distinct = 0;
    for (const auto& [u, v] : pairs) distinct += u != v ? 1 : 0;
    stats.lca_probes = distinct * k * FrtIndex::kLcaProbesPerQuery;
    return stats;
  }

  // Cached batch, three phases.
  // (0) A *serial* classification pass probes the cache per pair, so
  // admissions, counters, and cache state depend only on the query
  // sequence — never on thread interleaving.  The salt binds entries to
  // this ensemble's identity (seed + graph) as well as the policy, so a
  // cache accidentally reused across ensembles can only miss (stale slots
  // become conflicts), never serve another ensemble's distances.
  enum class Action : unsigned char { self, hit, fill, bypass };
  const auto salt = static_cast<std::uint64_t>(policy) ^ master_seed_ ^
                    graph_fingerprint_;
  std::vector<Action> action(q);
  std::vector<std::uint32_t> slot(q, 0);
  std::vector<std::size_t> fills;
  {
    PMTE_OBS_SPAN("ensemble.classify", static_cast<std::int64_t>(q),
                  "pairs");
    for (std::size_t i = 0; i < q; ++i) {
      const auto [u, v] = pairs[i];
      if (u == v) {
        action[i] = Action::self;
        continue;
      }
      switch (cache->probe(HotPairCache::pair_key(u, v, salt), &slot[i])) {
        case HotPairCache::Outcome::hit:
          action[i] = Action::hit;
          ++stats.cache_hits;
          break;
        case HotPairCache::Outcome::fill:
          action[i] = Action::fill;
          fills.push_back(i);
          ++stats.cache_misses;
          ++stats.cache_admissions;
          break;
        case HotPairCache::Outcome::bypass:
          action[i] = Action::bypass;
          ++stats.cache_misses;
          ++stats.cache_conflicts;
          break;
      }
    }
  }

  // (1) Compute each admitted pair once; every fill owns a distinct slot,
  // so the parallel writes never collide.
  {
    PMTE_OBS_SPAN("ensemble.fill", static_cast<std::int64_t>(fills.size()),
                  "fills");
    parallel_for_balanced(
        fills.size(), [k](std::size_t) { return k; },
        [&](std::size_t f) {
          const std::size_t i = fills[f];
          cache->set_value(slot[i],
                           compute(pairs[i].first, pairs[i].second));
        });
  }

  // (2) Serve: hits and fills read their slot (the exact double phase 1
  // stored — bit-identical to recomputing), bypasses compute directly.
  {
    PMTE_OBS_SPAN("ensemble.serve", static_cast<std::int64_t>(q), "pairs");
    parallel_for_balanced(
        q,
        [&](std::size_t i) {
          return action[i] == Action::bypass ? k : std::size_t{1};
        },
        [&](std::size_t i) {
          switch (action[i]) {
            case Action::self:
              out[i] = 0.0;
              break;
            case Action::hit:
            case Action::fill:
              out[i] = cache->value(slot[i]);
              break;
            case Action::bypass:
              out[i] = compute(pairs[i].first, pairs[i].second);
              break;
          }
        });
  }

  // Logical costs: only computed aggregates consult the trees.  u == v
  // pairs short-circuit to 0.0 without lookups (the uncached path's k
  // zero-distance reads are equally free — both serve the same double).
  stats.tree_lookups = (stats.cache_admissions + stats.cache_conflicts) * k;
  stats.lca_probes = (stats.cache_admissions + stats.cache_conflicts) * k *
                     FrtIndex::kLcaProbesPerQuery;
  return stats;
}

void FrtEnsemble::save(std::ostream& os) const {
  PMTE_OBS_SPAN("ensemble.save", static_cast<std::int64_t>(indices_.size()),
                "trees");
  // One writer spans the whole artefact: section padding is computed from
  // the absolute in-artefact offset, so the embedded index payloads stay
  // 64-byte aligned for the mmap path.
  BinaryWriter w(os);
  w.magic(kEnsembleMagic);
  w.u64(master_seed_);
  w.u64(graph_fingerprint_);
  w.u64(indices_.size());
  for (const auto& idx : indices_) idx.save_into(w);
}

FrtEnsemble FrtEnsemble::parse(ImageReader& r) {
  r.expect_magic(kEnsembleMagic);
  FrtEnsemble e;
  e.master_seed_ = r.u64();
  e.graph_fingerprint_ = r.u64();
  const std::uint64_t trees = r.u64();
  PMTE_CHECK(trees >= 1 && trees <= (1ULL << 20),
             "FrtEnsemble: implausible tree count");
  // Every embedded index takes at least its header block (16 bytes),
  // levels (4), β (8) and three length prefixes (24): a count the
  // remaining bytes cannot hold fails here, before reserving for it.
  constexpr std::uint64_t kMinIndexBytes = 16 + 4 + 8 + 3 * 8;
  PMTE_CHECK(trees <= r.remaining() / kMinIndexBytes,
             "FrtEnsemble: tree count " + std::to_string(trees) +
                 " cannot fit in the " + std::to_string(r.remaining()) +
                 " byte(s) left");
  e.indices_.reserve(trees);
  for (std::uint64_t t = 0; t < trees; ++t) {
    e.indices_.push_back(FrtIndex::load_from(r));
    PMTE_CHECK(e.indices_.back().num_leaves() ==
                   e.indices_.front().num_leaves(),
               "FrtEnsemble: indices disagree on the vertex set");
  }
  r.expect_end();
  return e;
}

FrtEnsemble FrtEnsemble::load(std::span<const std::byte> image) {
  PMTE_OBS_SPAN("ensemble.load");
  if (obs::metrics_on()) ensemble_obs().loads_copied.add(1);
  ImageReader r(image, ImageReader::Sections::copy);
  return parse(r);
}

FrtEnsemble FrtEnsemble::load_mapped(MappedFile file) {
  PMTE_OBS_SPAN("ensemble.load_mapped");
  if (obs::metrics_on()) ensemble_obs().loads_mapped.add(1);
  // The index sections are views into the mapping; the shared_ptr travels
  // with the ensemble through moves and the registry, keeping the address
  // range alive until the last reference drops.
  auto mapping = std::make_shared<const MappedFile>(std::move(file));
  ImageReader r(mapping->bytes(), ImageReader::Sections::view);
  FrtEnsemble e = parse(r);
  e.mapping_ = std::move(mapping);
  return e;
}

FrtEnsemble FrtEnsemble::load_mapped(const std::string& path) {
  return load_mapped(MappedFile(path));
}

}  // namespace pmte::serve
