#pragma once
// Many-tenant resident serving core: ensemble registry, per-tenant query
// streams, epoch-based hot-swap.
//
// serve_queries (PR 4/5) replayed one workload against one ensemble; the
// north-star traffic is many independent *tenants* — each with its own
// ensemble (Blelloch–Gu–Sun motivates serving many independently built
// embeddings side by side), its own aggregation policy, and its own
// hot-pair cache — interleaved in one query stream.  Server carries that
// traffic in three deterministic phases per batch:
//
//   Flip        — staged epoch swaps apply at the batch boundary (serial):
//                 the tenant's ensemble pointer moves to the staged
//                 registry entry, its cache resets (a fresh stream epoch),
//                 and any swapped-out ensemble no tenant references any
//                 more is retired from the registry.  Load/build of the
//                 replacement happens *before* the flip, while the old
//                 epoch serves — the flip itself is a pointer assignment.
//   Route       — a serial classification pass appends each query to its
//                 tenant's shard, preserving each tenant's stream order.
//   Execute     — shards run in parallel via parallel_for_balanced (cost =
//                 shard pairs × that tenant's tree count); inside a shard,
//                 the tenant's FrtEnsemble::query_batch runs serially (it
//                 detects the enclosing region), so each tenant's outputs,
//                 cache evolution, and counters are a pure function of its
//                 own query subsequence.  Results scatter back to
//                 interleaved positions and counters fold in tenant id
//                 order, serially.
//
// Determinism contract (per stream): for every tenant, the served doubles,
// the cumulative counters, and the running result hash are bit-identical
// at any thread count and any tenant interleaving — they depend only on
// the tenant's own (ensemble epoch sequence, query subsequence).  A swap
// staged at batch boundary B is equivalent to serially replaying the
// tenant's queries before B against the old ensemble (fresh cache) and the
// queries from B on against the new one (fresh cache) — pinned by
// test_server.cpp at 1/2/8 threads and gated in BENCH_server.json.
//
// Thread-safety: Server is externally synchronised — one serve() at a
// time, and load/add_tenant/stage_swap only between batches (the epoch
// lifecycle is documented in docs/SERVING.md).  The *ensembles* are
// immutable and shared; it is the per-tenant caches and counters that make
// the server single-writer.

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/rng.hpp"

namespace pmte::serve {

/// Fingerprint-keyed store of loaded ensembles (the key is
/// FrtEnsemble::registry_fingerprint — FNV-1a over the serialized
/// header + master seed + graph fingerprint + tree count, see
/// serialize.hpp).  Entries are immutable and shared: tenants hold
/// shared_ptr references, so erasing an entry retires it from *new*
/// lookups while any tenant still serving from it keeps it alive.
/// Deterministic: keyed and iterated by fingerprint value (std::map), no
/// pointer identity anywhere.  Not internally synchronised — mutate only
/// between batches.
class EnsembleRegistry {
 public:
  /// Register an ensemble under its registry fingerprint and return the
  /// fingerprint.  Idempotent for equal content; PMTE_CHECK-fails on a
  /// fingerprint collision between *different* ensembles (the fingerprint
  /// covers the deterministic build identity, so a collision means two
  /// builds disagreed on content for the same inputs — a bug, not a case
  /// to paper over).
  std::uint64_t add(FrtEnsemble e);

  /// Look up by fingerprint; nullptr when absent.
  [[nodiscard]] std::shared_ptr<const FrtEnsemble> find(
      std::uint64_t fingerprint) const;

  [[nodiscard]] bool contains(std::uint64_t fingerprint) const {
    return entries_.count(fingerprint) != 0;
  }

  /// Remove an entry (tenants still referencing it keep it alive — see
  /// class comment).  Returns whether anything was removed.
  bool erase(std::uint64_t fingerprint) {
    return entries_.erase(fingerprint) != 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// All registered fingerprints, ascending (deterministic iteration).
  [[nodiscard]] std::vector<std::uint64_t> fingerprints() const;

 private:
  std::map<std::uint64_t, std::shared_ptr<const FrtEnsemble>> entries_;
};

/// Static description of one tenant's stream.
struct TenantConfig {
  std::uint64_t ensemble = 0;      ///< registry fingerprint to serve from
  AggregatePolicy policy = AggregatePolicy::min;
  std::size_t cache_capacity = 0;  ///< hot-pair cache slots; 0 = uncached
};

/// Cumulative deterministic counters of one tenant stream.  Every field is
/// a logical count (thread-count invariant); result_hash64 folds each
/// served double in stream order, so result_hash32() pins the entire
/// stream's values bit-for-bit (same FNV-1a formula as the bench gate's
/// result_hash32 — server hashes line up with BENCH_server.json).
struct TenantCounters {
  std::uint64_t batches = 0;       ///< serve() calls with ≥ 1 query for us
  std::uint64_t pairs = 0;
  std::uint64_t tree_lookups = 0;  ///< computed pairs × trees
  std::uint64_t lca_probes = 0;    ///< ancestor rows read (2 per u≠v tree)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Misses split by slot outcome, folded per batch into this ledger —
  /// cumulative across epochs, so they survive the cache reset at a
  /// hot-swap (the cache's own stats() restart with each epoch).
  std::uint64_t cache_admissions = 0;  ///< misses that claimed a slot
  std::uint64_t cache_conflicts = 0;   ///< misses bypassed (slot taken)
  std::uint64_t epoch = 0;         ///< completed hot-swaps (0 = first epoch)
  std::uint64_t result_hash64 = kFnv1aInit;

  /// 32-bit fold of result_hash64 (survives JSON double rewriting).
  [[nodiscard]] std::uint64_t result_hash32() const noexcept {
    return (result_hash64 >> 32) ^ (result_hash64 & 0xffffffffULL);
  }
};

class Server {
 public:
  Server() = default;

  /// Register an ensemble (see EnsembleRegistry::add) so tenants can serve
  /// from it or swap to it.  Between batches only.
  std::uint64_t load(FrtEnsemble e) { return registry_.add(std::move(e)); }

  [[nodiscard]] const EnsembleRegistry& registry() const noexcept {
    return registry_;
  }

  /// Create a tenant stream serving from cfg.ensemble (must be
  /// registered).  Tenant ids are dense and assigned in call order, so a
  /// fixed setup sequence names fixed ids.  Between batches only.
  TenantId add_tenant(const TenantConfig& cfg);

  [[nodiscard]] std::size_t num_tenants() const noexcept {
    return tenants_.size();
  }

  /// Stage an epoch hot-swap: at the start of the *next* serve() batch,
  /// tenant `t` flips to `fingerprint` (must be registered by then —
  /// checked at flip time, so the replacement can be loaded after
  /// staging), its cache resets, and its epoch counter increments.  The
  /// current batch boundary model makes the flip atomic with respect to
  /// queries: no batch ever sees both epochs.  Restaging before the flip
  /// overwrites the previous staging.  Staging the *current* fingerprint
  /// is a cache/epoch reset.  Between batches only.
  void stage_swap(TenantId t, std::uint64_t fingerprint);

  /// Whether a staged swap is waiting for the next batch boundary.
  [[nodiscard]] bool swap_pending(TenantId t) const {
    return tenants_[t].has_staged;
  }

  /// Fingerprint of the epoch tenant `t` currently serves from.
  [[nodiscard]] std::uint64_t tenant_fingerprint(TenantId t) const {
    return tenants_[t].fingerprint;
  }

  [[nodiscard]] const TenantConfig& tenant_config(TenantId t) const {
    return tenants_[t].cfg;
  }

  /// Cumulative counters of tenant `t` (see TenantCounters).
  [[nodiscard]] const TenantCounters& counters(TenantId t) const {
    return tenants_[t].counters;
  }

  /// Swapped-out ensembles retired from the registry so far (drained: no
  /// tenant reference remained at a flip boundary).
  [[nodiscard]] std::uint64_t epochs_retired() const noexcept {
    return retired_;
  }

  /// Serve one interleaved batch: apply staged flips, route serially,
  /// execute shards in parallel, scatter results into `out` (resized to
  /// the batch, interleaved order), fold counters serially.  Outputs and
  /// all per-tenant counters are bit-identical at any thread count.
  void serve(std::span<const TenantQuery> batch, std::vector<Weight>& out);

 private:
  /// Lazily bound per-tenant metric handles (labels like tenant="3").
  /// Raw pointers into the process-wide registry, which never dies;
  /// nullptr until metrics are first enabled (see ensure_tenant_obs).
  struct TenantObsHandles {
    obs::Counter* batches = nullptr;
    obs::Counter* pairs = nullptr;
    obs::Histogram* shard_pairs = nullptr;  ///< logical — deterministic
    obs::Histogram* shard_ns = nullptr;     ///< wall-time — informational
  };

  struct Tenant {
    TenantConfig cfg;
    std::shared_ptr<const FrtEnsemble> ensemble;
    std::uint64_t fingerprint = 0;
    std::optional<HotPairCache> cache;
    std::uint64_t staged = 0;
    bool has_staged = false;
    TenantCounters counters;
    // The tenant's shard of the current batch (buffers reused across
    // batches): pairs[j], in stream order, came from batch position
    // positions[j]; out and stats are its query_batch's results.
    std::vector<std::pair<Vertex, Vertex>> pairs;
    std::vector<std::uint32_t> positions;
    std::vector<Weight> out;
    FrtEnsemble::BatchStats stats;
    TenantObsHandles obs;
  };

  /// Serial flip phase: apply staged swaps, then retire drained epochs.
  void apply_staged_swaps();

  /// Bind metric handles for any tenant that lacks them and refresh the
  /// registry/tenant gauges.  Serial phase, called only when metrics are
  /// on — tenants added before obs was enabled get their handles at the
  /// next batch.
  void ensure_tenant_obs();

  EnsembleRegistry registry_;
  std::vector<Tenant> tenants_;
  std::uint64_t retired_ = 0;
};

}  // namespace pmte::serve
