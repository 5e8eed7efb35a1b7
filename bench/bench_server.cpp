// E-server — the many-tenant serving engine: interleaved tenant streams
// through the EnsembleRegistry / shard routing / epoch hot-swap pipeline
// (src/serve/server.hpp).
//
// Claims carried: routing is a serial classification pass (shard contents
// are a pure function of the query stream), shard execution parallelises
// across tenants with bit-identical per-stream outputs at any thread
// count, and an epoch hot-swap staged at a batch boundary equals a serial
// replay of the tenant's stream split at the swap point.
//
// `--counters` emits the per-tenant deterministic ledger for the CI bench
// gate (the eighth gated baseline, BENCH_server.json): the canonical
// four-tenant scenario — interleaved zipf+uniform streams, min and median
// policies, one hot-pair cache per stream, tenant 0 hot-swapped to a
// second ensemble mid-stream — and each tenant's cumulative queries,
// per-tree lookups, LCA probes, and cache misses (gated), plus cache hits,
// epoch, and result_hash32 (ungated; the hash pins every served double of
// the stream bit-for-bit).

#include "bench/bench_common.hpp"
#include "src/obs/obs.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace pmte::bench {
namespace {

serve::EnsembleOptions ensemble_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

/// The canonical tenant mix (matches serve_queries --tenants): even
/// tenants replay zipf, odd tenants uniform; policies alternate in pairs.
std::vector<serve::TenantStreamSpec> tenant_specs(std::size_t tenants,
                                                  std::size_t per_tenant) {
  std::vector<serve::TenantStreamSpec> specs(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    specs[t].kind = (t % 2 == 0) ? serve::WorkloadKind::zipf
                                 : serve::WorkloadKind::uniform;
    specs[t].opts.pairs = per_tenant;
    specs[t].opts.zipf_s = 1.2;
  }
  return specs;
}

serve::AggregatePolicy tenant_policy(std::size_t t) {
  return ((t / 2) % 2 == 0) ? serve::AggregatePolicy::min
                            : serve::AggregatePolicy::median;
}

void run_counters() {
  // Fixed instance: the bench_serve graph family at the same size, two
  // ensembles differing only in master seed (the swap source and target).
  Rng grng(42);
  const auto g = make_gnm(512, 1536, {1.0, 4.0}, grng);
  constexpr std::size_t kTenants = 4, kBatches = 8, kSwapAt = 4;
  constexpr std::size_t kPerTenant = 50000;

  serve::Server server;
  const auto fp_a = server.load(serve::FrtEnsemble::build(
      g, 4001, ensemble_options(4)));
  const auto fp_b = server.load(serve::FrtEnsemble::build(
      g, 4002, ensemble_options(4)));
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantConfig cfg;
    cfg.ensemble = fp_a;
    cfg.policy = tenant_policy(t);
    cfg.cache_capacity = 1 << 12;
    server.add_tenant(cfg);
  }

  const auto specs = tenant_specs(kTenants, kPerTenant);
  const auto stream = serve::make_multi_tenant_workload(g, specs, 4003);
  std::vector<Weight> out;
  // Per-batch serve latency, log2-bucketed; surfaces below as the
  // informational batch_ns_p* keys (warn-only in the CI gate).
  obs::Histogram lat;
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b == kSwapAt) server.stage_swap(0, fp_b);
    const std::size_t lo = stream.size() * b / kBatches;
    const std::size_t hi = stream.size() * (b + 1) / kBatches;
    const Timer timer;
    server.serve(std::span(stream).subspan(lo, hi - lo), out);
    lat.record(static_cast<std::uint64_t>(timer.seconds() * 1e9));
  }

  std::vector<CounterScenario> scenarios;
  std::uint64_t total_queries = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto& c = server.counters(static_cast<serve::TenantId>(t));
    total_queries += c.pairs;
    const std::string name =
        "server_tenant" + std::to_string(t) + "_" +
        serve::workload_name(specs[t].kind) + "_" +
        serve::policy_name(tenant_policy(t)) +
        (t == 0 ? "_swapped" : "");
    scenarios.push_back(CounterScenario{name,
                                        {{"queries", c.pairs},
                                         {"tree_lookups", c.tree_lookups},
                                         {"lca_probes", c.lca_probes},
                                         {"cache_misses", c.cache_misses},
                                         {"cache_hits", c.cache_hits},
                                         {"cache_admissions",
                                          c.cache_admissions},
                                         {"cache_conflicts",
                                          c.cache_conflicts},
                                         {"epoch", c.epoch},
                                         {"result_hash32",
                                          c.result_hash32()}}});
  }
  // Registry lifecycle of the scenario: both ensembles loaded, tenant 0
  // flipped mid-stream, and the swapped-out epoch stays resident because
  // tenants 1-3 still serve it (nothing retires).
  scenarios.push_back(
      CounterScenario{"server_registry",
                      {{"queries", total_queries},
                       {"ensembles_resident", server.registry().size()},
                       {"epochs_retired", server.epochs_retired()}}});
  auto& reg_metrics = scenarios.back().metrics;
  reg_metrics.emplace_back("batch_ns_p50", lat.percentile(0.50));
  reg_metrics.emplace_back("batch_ns_p95", lat.percentile(0.95));
  reg_metrics.emplace_back("batch_ns_p99", lat.percentile(0.99));
  emit_counters(std::cout, scenarios);
}

void run(const Cli& cli) {
  print_header(
      "E-server: many-tenant serving engine",
      "serial routing + parallel per-tenant shards keep every stream's "
      "outputs and counters bit-identical at any thread count; epoch "
      "hot-swaps flip at batch boundaries without a serving gap");
  const std::size_t per_tenant = quick(cli) ? 50000 : 200000;
  const std::size_t batches = 8;
  Rng rng(cli.seed());
  auto inst = make_instance("gnm", quick(cli) ? 1024 : 4096, rng());

  const auto e_seed = rng();
  Table t({"tenants", "queries", "batches", "swap", "route [ms]",
           "Mq/s", "ns/query"});
  for (const std::size_t tenants : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    for (const bool swap : {false, true}) {
      serve::Server server;
      const auto fp_a = server.load(
          serve::FrtEnsemble::build(inst.graph, e_seed, ensemble_options(8)));
      const auto fp_b = server.load(serve::FrtEnsemble::build(
          inst.graph, e_seed + 1, ensemble_options(8)));
      for (std::size_t tt = 0; tt < tenants; ++tt) {
        serve::TenantConfig cfg;
        cfg.ensemble = fp_a;
        cfg.policy = tenant_policy(tt);
        cfg.cache_capacity = 1 << 14;
        server.add_tenant(cfg);
      }
      const auto stream = serve::make_multi_tenant_workload(
          inst.graph, tenant_specs(tenants, per_tenant / tenants * 4), 77);
      std::vector<Weight> out;
      double seconds = 0.0;
      for (std::size_t b = 0; b < batches; ++b) {
        if (swap && b == batches / 2) server.stage_swap(0, fp_b);
        const std::size_t lo = stream.size() * b / batches;
        const std::size_t hi = stream.size() * (b + 1) / batches;
        Timer timer;
        server.serve(std::span(stream).subspan(lo, hi - lo), out);
        seconds += timer.seconds();
      }
      const auto q = static_cast<double>(stream.size());
      t.add_row({cell(tenants), cell(stream.size()), cell(batches),
                 swap ? "mid-stream" : "none", cell(seconds * 1e3),
                 cell(q / seconds / 1e6), cell(seconds * 1e9 / q)});
    }
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  if (pmte::bench::wants_counters(argc, argv)) {
    pmte::bench::run_counters();
    return 0;
  }
  const pmte::Cli cli(argc, argv);
  pmte::bench::run(cli);
  return 0;
}
