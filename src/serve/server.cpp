#include "src/serve/server.hpp"

#include <algorithm>

#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte::serve {

#if PMTE_OBS
namespace {

/// Server-wide instruments, bound once on first use (the registry returns
/// stable references for the process lifetime).
struct ServerObs {
  obs::Counter& swaps;
  obs::Gauge& ensembles;
  obs::Gauge& tenants;
};

ServerObs& server_obs() {
  auto& reg = obs::registry();
  static ServerObs o{
      reg.counter("pmte_server_epoch_swaps_total", {},
                  "Tenant epoch hot-swaps applied at batch boundaries"),
      reg.gauge("pmte_registry_ensembles", {},
                "Ensembles resident in the registry"),
      reg.gauge("pmte_server_tenants", {}, "Tenant streams registered"),
  };
  return o;
}

}  // namespace

void Server::ensure_tenant_obs() {
  auto& reg = obs::registry();
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Tenant& ten = tenants_[t];
    if (ten.obs.batches != nullptr) continue;
    const obs::Labels labels{{"tenant", std::to_string(t)}};
    ten.obs.batches =
        &reg.counter("pmte_server_batches_total", labels,
                     "Batches carrying at least one query for this tenant");
    ten.obs.pairs = &reg.counter("pmte_server_pairs_total", labels,
                                 "Query pairs served for this tenant");
    ten.obs.shard_pairs =
        &reg.histogram("pmte_server_shard_pairs", labels,
                       "Per-batch shard size in pairs (logical value — "
                       "deterministic bucket counts)");
    ten.obs.shard_ns =
        &reg.histogram("pmte_server_shard_duration_ns", labels,
                       "Per-batch shard execution wall time in ns "
                       "(informational, never gated)");
  }
  server_obs().ensembles.set(static_cast<std::int64_t>(registry_.size()));
  server_obs().tenants.set(static_cast<std::int64_t>(tenants_.size()));
}
#endif  // PMTE_OBS

std::uint64_t EnsembleRegistry::add(FrtEnsemble e) {
  const std::uint64_t fp = e.registry_fingerprint();
  const auto it = entries_.find(fp);
  if (it != entries_.end()) {
    PMTE_CHECK(*it->second == e,
               "EnsembleRegistry::add: fingerprint collision between "
               "different ensembles (same build identity, different "
               "content)");
    return fp;
  }
  entries_.emplace(fp, std::make_shared<const FrtEnsemble>(std::move(e)));
  return fp;
}

std::shared_ptr<const FrtEnsemble> EnsembleRegistry::find(
    std::uint64_t fingerprint) const {
  const auto it = entries_.find(fingerprint);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::uint64_t> EnsembleRegistry::fingerprints() const {
  std::vector<std::uint64_t> fps;
  fps.reserve(entries_.size());
  for (const auto& [fp, e] : entries_) fps.push_back(fp);
  return fps;
}

TenantId Server::add_tenant(const TenantConfig& cfg) {
  Tenant t;
  t.cfg = cfg;
  t.ensemble = registry_.find(cfg.ensemble);
  PMTE_CHECK(t.ensemble != nullptr,
             "Server::add_tenant: ensemble fingerprint not registered");
  t.fingerprint = cfg.ensemble;
  if (cfg.cache_capacity > 0) t.cache.emplace(cfg.cache_capacity);
  tenants_.push_back(std::move(t));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void Server::stage_swap(TenantId t, std::uint64_t fingerprint) {
  PMTE_CHECK(t < tenants_.size(), "Server::stage_swap: no such tenant");
  tenants_[t].staged = fingerprint;
  tenants_[t].has_staged = true;
}

void Server::apply_staged_swaps() {
  std::vector<std::uint64_t> swapped_out;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Tenant& ten = tenants_[t];
    if (!ten.has_staged) continue;
    PMTE_OBS_SPAN("server.swap", static_cast<std::int64_t>(t), "tenant");
    PMTE_OBS_ONLY(if (obs::metrics_on()) server_obs().swaps.add(1));
    auto next = registry_.find(ten.staged);
    PMTE_CHECK(next != nullptr,
               "Server::serve: staged swap targets an unregistered "
               "ensemble fingerprint");
    swapped_out.push_back(ten.fingerprint);
    ten.ensemble = std::move(next);
    ten.fingerprint = ten.staged;
    ten.has_staged = false;
    // A new epoch is a new stream: the cache restarts empty (its salt is
    // bound to the old ensemble's identity anyway, so carrying entries
    // over could only produce conflicts, never hits).  The tenant's
    // cumulative ledger is unaffected — every batch folds its admission /
    // conflict counts into TenantCounters before any reset can happen, so
    // pre-swap contributions are never lost.
    if (ten.cache) ten.cache->clear();
    ++ten.counters.epoch;
  }
  // Retire drained epochs: a swapped-out fingerprint no tenant serves any
  // more leaves the registry.  Only fingerprints that were actually
  // flipped away from are candidates — ensembles loaded for a future swap
  // are never collected out from under the operator.
  std::sort(swapped_out.begin(), swapped_out.end());
  swapped_out.erase(std::unique(swapped_out.begin(), swapped_out.end()),
                    swapped_out.end());
  for (const std::uint64_t fp : swapped_out) {
    bool referenced = false;
    for (const auto& ten : tenants_) referenced |= ten.fingerprint == fp;
    if (!referenced && registry_.erase(fp)) ++retired_;
  }
}

void Server::serve(std::span<const TenantQuery> batch,
                   std::vector<Weight>& out) {
  PMTE_OBS_SPAN("server.serve", static_cast<std::int64_t>(batch.size()),
                "batch");
  {
    PMTE_OBS_SPAN("server.flip");
    apply_staged_swaps();
  }
#if PMTE_OBS
  if (obs::metrics_on()) ensure_tenant_obs();
#endif
  {
    PMTE_OBS_SPAN("server.route", static_cast<std::int64_t>(batch.size()),
                  "batch");
    // Serial by design, like HotPairCache admission: each shard is a pure
    // function of the query sequence, never of thread interleaving.
    for (auto& ten : tenants_) {
      ten.pairs.clear();
      ten.positions.clear();
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const TenantQuery& q = batch[i];
      PMTE_CHECK(q.tenant < tenants_.size(),
                 "Server::serve: tenant id out of range");
      auto& ten = tenants_[q.tenant];
      ten.pairs.emplace_back(q.u, q.v);
      ten.positions.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Parallel shard execution: one task per tenant, cost-balanced by the
  // shard's aggregate volume.  Each tenant's query_batch detects the
  // enclosing region and runs serially, so its outputs, cache state, and
  // counters depend only on its own stream — never on which thread ran
  // the shard or how many tenants share the batch.  (With a single
  // tenant no region opens and query_batch parallelises internally —
  // bit-identical either way by its own contract.)
  const std::size_t nt = tenants_.size();
  {
    PMTE_OBS_SPAN("server.execute", static_cast<std::int64_t>(nt),
                  "tenants");
    parallel_for_balanced(
        nt,
        [&](std::size_t t) {
          return tenants_[t].pairs.size() *
                 tenants_[t].ensemble->num_trees();
        },
        [&](std::size_t t) {
          auto& ten = tenants_[t];
          if (ten.pairs.empty()) return;
          PMTE_OBS_SPAN("server.shard", static_cast<std::int64_t>(t),
                        "tenant", ten.obs.shard_ns);
          ten.stats = ten.ensemble->query_batch(
              ten.pairs, ten.cfg.policy, ten.out,
              ten.cache ? &*ten.cache : nullptr);
        });
  }

  {
    PMTE_OBS_SPAN("server.scatter");
    out.assign(batch.size(), 0.0);
    for (const auto& ten : tenants_) {
      for (std::size_t j = 0; j < ten.positions.size(); ++j) {
        out[ten.positions[j]] = ten.out[j];
      }
    }
  }

  // Serial counter fold, tenant id order: cumulative logical counts plus
  // the running FNV-1a over this tenant's served doubles in stream order.
  PMTE_OBS_SPAN("server.fold");
  PMTE_OBS_ONLY(const bool obs_metrics = obs::metrics_on());
  for (auto& ten : tenants_) {
    if (ten.pairs.empty()) continue;
    auto& c = ten.counters;
    ++c.batches;
    c.pairs += ten.stats.pairs;
    c.tree_lookups += ten.stats.tree_lookups;
    c.lca_probes += ten.stats.lca_probes;
    c.cache_hits += ten.stats.cache_hits;
    c.cache_misses += ten.stats.cache_misses;
    c.cache_admissions += ten.stats.cache_admissions;
    c.cache_conflicts += ten.stats.cache_conflicts;
    for (const Weight w : ten.out) {
      std::uint64_t bits;
      std::memcpy(&bits, &w, sizeof(bits));
      c.result_hash64 = fnv1a_fold(c.result_hash64, bits);
    }
    PMTE_OBS_ONLY(if (obs_metrics && ten.obs.batches != nullptr) {
      ten.obs.batches->add(1);
      ten.obs.pairs->add(ten.stats.pairs);
      ten.obs.shard_pairs->record(ten.stats.pairs);
    });
  }
}

}  // namespace pmte::serve
