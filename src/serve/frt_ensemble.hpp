#pragma once
// Ensemble of independently-seeded FRT serving indices.
//
// A single FRT tree only guarantees O(log n) *expected* stretch; serving
// systems (Blelloch–Gu–Sun, PAPERS.md) recover the practical quality by
// querying k independent trees and aggregating.  FrtEnsemble builds k
// FrtIndex instances over the same graph:
//
//   Randomness  — per-tree RNG streams derive from one master seed via
//                 split_seed(master, 1 + t) (stream 0 feeds the shared
//                 hop-set / simulated-graph randomness of the oracle
//                 pipeline).  Each tree is a fixed function of (graph,
//                 master, t), so the ensemble is reproducible regardless
//                 of build order and thread count.
//   Build       — trees build in parallel (parallel_for over slots; the
//                 per-tree engine loops detect the enclosing region and
//                 run serially).  The oracle pipeline shares one simulated
//                 graph across all trees, amortising the hop set.
//   Queries     — query(u, v, policy) aggregates the k index lookups
//                 with `min` (tightest dominating estimate; every tree
//                 dominates dist_G, hence so does the min) or `median`
//                 (robust distance-weighted-stretch estimate; the upper
//                 median for even k, so it stays dominating too).
//   Batches     — query_batch answers a pair list via
//                 parallel_for_balanced and reports deterministic logical
//                 counters (pairs, per-tree lookups, LCA codes read)
//                 for the CI bench gate; outputs are bit-identical across
//                 thread counts.
//   Hot pairs   — an optional caller-owned HotPairCache short-circuits
//                 repeated pairs (Zipf traffic): a serial classification
//                 pass decides hit/fill/bypass per pair, fills compute
//                 once in parallel, everything else is an array read.
//                 Served values are bit-identical with the cache on or
//                 off, and the hit/miss counters are deterministic at any
//                 thread count (see hot_pair_cache.hpp).
//
// save()/load() persist the whole ensemble (master seed + every index)
// in the binary format; round-trips are exact.  load() copies the arrays
// out of an in-memory artefact image; load_mapped() mmaps the artefact
// and runs the same parse with every index's persisted arrays left as
// views into the file image (zero bulk bytes copied — the load-path
// counters in serialize.hpp prove it).  Either way only the O(n·L)
// structure maps are derived.
// The ensemble owns the mapping via shared_ptr, so registry entries,
// tenants, and copies of the shared_ptr keep it alive for as long as any
// query can touch it; served doubles and all logical counters are
// bit-identical between the two load paths.
//
// Query path: per u ≠ v pair the batch kernel loops over the trees, reads
// the pair's two LCA codes in each (frt_index.hpp), and folds the k
// distances in tree order.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/frt/pipelines.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/hot_pair_cache.hpp"

namespace pmte::serve {

/// Which sampling pipeline produces the ensemble's trees.
enum class EnsemblePipeline { oracle, direct, sequential };

/// How per-tree distances collapse into one served value.
enum class AggregatePolicy { min, median };

struct EnsembleOptions {
  std::size_t trees = 8;
  EnsemblePipeline pipeline = EnsemblePipeline::oracle;
  FrtOptions frt;  ///< weight rule, ε̂, hop-set, engine tunables
};

/// Deterministic build accounting, summed over all trees (WorkDepth
/// logical-op deltas — thread-count independent; wall time is not).
struct EnsembleBuildStats {
  std::uint64_t work = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t edges_touched = 0;
  std::uint64_t iterations = 0;    ///< top-level MBF iterations, summed
  std::uint64_t index_nodes = 0;   ///< flat nodes across all indices
  double seconds = 0.0;
};

class FrtEnsemble {
 public:
  FrtEnsemble() = default;

  /// Build `opts.trees` indices over `g` from one master seed.
  [[nodiscard]] static FrtEnsemble build(const Graph& g,
                                         std::uint64_t master_seed,
                                         const EnsembleOptions& opts = {});

  /// Assemble a servable ensemble from already-built indices — the
  /// dynamic-maintenance snapshot path (serve::DynamicEnsemble rebuilds
  /// only the indices whose trees an update changed and re-wraps them
  /// all).  `graph_fingerprint` must be fingerprint() of the graph the
  /// indices currently embed; with indices equal to build()'s the result
  /// compares == to build()'s and carries the same registry fingerprint.
  /// Build stats are not populated (nothing was built here).
  [[nodiscard]] static FrtEnsemble assemble(std::vector<FrtIndex> indices,
                                            std::uint64_t master_seed,
                                            std::uint64_t graph_fingerprint);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return indices_.size();
  }
  [[nodiscard]] Vertex num_vertices() const noexcept {
    return indices_.empty() ? 0 : indices_.front().num_leaves();
  }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return master_seed_;
  }
  /// Fingerprint of the graph this ensemble was built over (persisted, so
  /// loaders can refuse to serve a different graph's distances).
  [[nodiscard]] std::uint64_t graph_fingerprint() const noexcept {
    return graph_fingerprint_;
  }

  /// FNV-1a over (n, every half-edge's target and weight bits) — a cheap
  /// structural identity for "same graph as at build time" checks.
  [[nodiscard]] static std::uint64_t fingerprint(const Graph& g);

  /// Registry identity of this ensemble: serve::registry_fingerprint over
  /// its serialized prelude (header + master seed + graph fingerprint +
  /// tree count).  A pure function of the deterministic build inputs, so a
  /// freshly built ensemble and its save→load round-trip fingerprint
  /// identically; the many-tenant server keys its EnsembleRegistry on it.
  [[nodiscard]] std::uint64_t registry_fingerprint() const noexcept;
  [[nodiscard]] const FrtIndex& index(std::size_t t) const {
    return indices_[t];
  }
  /// Whether this ensemble serves straight from a file mapping.
  [[nodiscard]] bool is_mapped() const noexcept { return mapping_ != nullptr; }
  /// Size of the backing mapping in bytes (0 when not mapped).
  [[nodiscard]] std::size_t mapped_bytes() const noexcept {
    return mapping_ ? mapping_->size() : 0;
  }
  [[nodiscard]] const EnsembleBuildStats& build_stats() const noexcept {
    return stats_;
  }

  /// Aggregated point query: k two-code lookups + the policy fold.
  [[nodiscard]] Weight query(Vertex u, Vertex v,
                             AggregatePolicy policy) const;

  /// Deterministic logical counters of one batch (the bench-gate metrics).
  /// With a cache, tree_lookups / lca_probes count only the aggregates
  /// actually computed (fills + bypasses) — the quantity the cache saves.
  struct BatchStats {
    std::uint64_t pairs = 0;
    std::uint64_t tree_lookups = 0;  ///< computed pairs × trees
    std::uint64_t lca_probes = 0;    ///< codes read (u≠v only)
    std::uint64_t cache_hits = 0;    ///< pairs served from the cache
    std::uint64_t cache_misses = 0;  ///< cacheable pairs computed
    std::uint64_t cache_admissions = 0;  ///< misses that claimed a slot
    std::uint64_t cache_conflicts = 0;   ///< misses bypassed (slot taken)
  };

  /// Answer `pairs` into `out` (resized to match) under `policy`, in
  /// parallel via parallel_for_balanced.  Outputs and the returned
  /// counters are bit-identical across thread counts.  An optional
  /// caller-owned `cache` short-circuits repeated pairs; served values are
  /// bit-identical with and without it (one cache per query stream — the
  /// classification pass mutates it, so no concurrent batches).
  BatchStats query_batch(const std::vector<std::pair<Vertex, Vertex>>& pairs,
                         AggregatePolicy policy, std::vector<Weight>& out,
                         HotPairCache* cache = nullptr) const;

  /// Persist / restore through the binary format.  load() copies every
  /// array out of an in-memory artefact image (any base address), so the
  /// caller may drop `image` once it returns.  Both loaders run one parse
  /// and reject any byte after the last index.
  void save(std::ostream& os) const;
  [[nodiscard]] static FrtEnsemble load(std::span<const std::byte> image);
  /// Zero-copy load: mmap `path` and point every index's persisted arrays
  /// straight at the mapping; only the O(n·L) structure maps are derived.
  /// The returned ensemble owns the mapping (shared, so moves/copies
  /// through the registry keep it alive).
  [[nodiscard]] static FrtEnsemble load_mapped(const std::string& path);
  [[nodiscard]] static FrtEnsemble load_mapped(MappedFile file);

  friend bool operator==(const FrtEnsemble& a, const FrtEnsemble& b) {
    return a.master_seed_ == b.master_seed_ &&
           a.graph_fingerprint_ == b.graph_fingerprint_ &&
           a.indices_ == b.indices_;
  }

 private:
  /// The one artefact parse behind load() and load_mapped(): the reader's
  /// mode decides whether the indices own or view their arrays.
  [[nodiscard]] static FrtEnsemble parse(ImageReader& r);

  std::vector<FrtIndex> indices_;
  std::uint64_t master_seed_ = 0;
  std::uint64_t graph_fingerprint_ = 0;
  EnsembleBuildStats stats_{};  // build-time only; not persisted
  // Keeps a mapped file image alive for the indices' views (null when the
  // ensemble owns its arrays).  shared_ptr: registry entries and tenant
  // references all pin the same mapping.
  std::shared_ptr<const MappedFile> mapping_;
};

[[nodiscard]] const char* policy_name(AggregatePolicy policy) noexcept;

}  // namespace pmte::serve
