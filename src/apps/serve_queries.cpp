// serve_queries — build (or --load) an FRT-ensemble distance index over a
// generated graph and serve query workloads against it.
//
//   ./serve_queries replay  [--flag=value ...]   one workload, replayed
//   ./serve_queries tenants [--flag=value ...]   many tenant streams, with
//                                                hot-swaps and live updates
//
// schema() below declares each subcommand's flags, defaults and accepted
// values; docs/SERVING.md, docs/DYNAMIC.md and docs/OBSERVABILITY.md walk
// through runs.  Served doubles are bit-identical at any thread count and
// with or without --mmap, --cache and the exports; so are the logical
// counters at any thread count.

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/hot_pair_cache.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/server.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/assertions.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace pmte;

/// The flags of `replay`, or of `tenants`: the graph, the ensemble's
/// source, the query stream, the thread count and the exports, then the
/// subcommand's own.  --pipeline, --workload and --policy list their
/// choices in enum order: Cli::choice's index is cast to the enum.
std::vector<Flag> schema(bool tenants) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<Flag> flags{
      Flag::choice("graph", "gnm",
                   {"path", "cycle", "grid", "star", "gnm", "geometric",
                    "binary_tree", "powerlaw", "cliquechain"}),
      Flag::integer("n", 4096, 1, kMax), Flag::seed(42),
      Flag::integer("trees", 8, 1, kMax),
      Flag::choice("pipeline", "oracle", {"oracle", "direct", "sequential"}),
      Flag::text("load"), Flag::text("save"), Flag::toggle("mmap"),
      Flag::integer("queries", 200000, 1, kMax), Flag::real("zipf-s", 1.1),
      Flag::integer("threads", 0, 0, static_cast<std::int64_t>(kMaxThreads)),
      Flag::text("metrics-out"), Flag::text("trace-out")};
  if (tenants) {
    flags.insert(flags.end(),
                 {Flag::integer("tenants", 4, 1, kMax),
                  Flag::integer("batches", 8, 1, kMax),
                  Flag::integer("swap-at", std::nullopt, 0, kMax),
                  Flag::text("update-file"),
                  Flag::integer("cache-capacity", 4096, 1, kMax)});
  } else {
    flags.insert(flags.end(),
                 {Flag::choice("workload", "uniform",
                               {"uniform", "bfs_local", "zipf"}),
                  Flag::choice("policy", "min", {"min", "median"}),
                  Flag::integer("repeat", 3, 1, kMax), Flag::toggle("cache"),
                  Flag::integer("cache-capacity", 65536, 1, kMax),
                  Flag::toggle("stretch")});
  }
  return flags;
}

std::string fp_hex(std::uint64_t fp) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << fp;
  return os.str();
}

/// Write the ensemble's artefact to `path`; returns its size in bytes.
std::streamoff save(const serve::FrtEnsemble& ensemble,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PMTE_CHECK(out.good(), "cannot open " + path + " for writing");
  ensemble.save(out);
  return out.tellp();
}

/// Writes the requested exports when serve_main() returns — through *any*
/// exit path, a failed check included — so a failed run still leaves its
/// metrics/trace behind for diagnosis.
struct ObsExportGuard {
  std::string metrics_path;
  std::string trace_path;

  ~ObsExportGuard() {
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (os) {
        obs::publish_trace_losses();
        obs::registry().write_prometheus(os);
        std::cout << "metrics: wrote Prometheus exposition to "
                  << metrics_path << "\n";
      } else {
        std::cerr << "cannot open " << metrics_path << " for writing\n";
      }
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (os) {
        obs::trace_sink().write_chrome_trace(os);
        std::cout << "trace: wrote " << obs::trace_sink().num_events()
                  << " events to " << trace_path << " (lost "
                  << obs::trace_sink().dropped() << " past the thread index, "
                  << obs::trace_sink().overwritten()
                  << " overwritten in full rings)\n";
      } else {
        std::cerr << "cannot open " << trace_path << " for writing\n";
      }
    }
  }
};

/// The tenants subcommand: N interleaved tenant streams through one
/// Server, optionally with a mid-stream epoch hot-swap of tenant 0 and
/// live edge updates.
int run_tenants(const Graph& g, serve::FrtEnsemble base,
                serve::EnsembleOptions opts, std::uint64_t seed,
                const serve::WorkloadOptions& workload, const Cli& cli) {
  const auto tenants = static_cast<std::size_t>(cli.get_int("tenants"));
  const auto batches = static_cast<std::size_t>(cli.get_int("batches"));
  const auto swap_at = cli.has("swap-at") ? cli.get_int("swap-at") : -1;
  const auto capacity = static_cast<std::size_t>(cli.get_int("cache-capacity"));
  opts.trees = base.num_trees();

  // Every bad line of an update file, a weight the updates would overflow
  // or underflow included, is named before anything is served.
  std::vector<serve::UpdateEvent> updates;
  std::vector<WeightedEdge> edge_list;
  const auto& update_path = cli.get("update-file");
  if (!update_path.empty()) {
    std::ifstream in(update_path);
    PMTE_CHECK(in.good(), "cannot open " + update_path);
    edge_list = g.edge_list();
    updates = serve::read_update_file(in, update_path, edge_list, batches);
  }

  serve::Server server;
  const std::uint64_t fp0 = server.load(std::move(base));
  std::cout << "registry: serving ensemble " << fp_hex(fp0) << " ("
            << opts.trees << " trees)\n";

  // Load the replacement epoch *before* any flip: the expensive build
  // happens while the old epoch still serves; the flip itself is a
  // pointer assignment at a batch boundary.
  std::uint64_t fp_next = 0;
  if (swap_at >= 0) {
    const Timer t;
    fp_next = server.load(serve::FrtEnsemble::build(g, seed + 1, opts));
    std::cout << "registry: loaded replacement " << fp_hex(fp_next)
              << " (master seed " << seed + 1 << ") in " << t.millis()
              << " ms, old epoch still serving\n";
  }

  std::optional<serve::DynamicEnsemble> dyn;
  if (!update_path.empty()) {
    const Timer t;
    dyn.emplace(g, seed, opts);
    std::cout << "dynamic: maintaining " << opts.trees << " trees for "
              << updates.size() << " update(s), built in " << t.millis()
              << " ms\n";
  }

  // Tenant streams: alternating zipf/uniform shapes, min/median policies,
  // one hot-pair cache per stream.
  std::vector<serve::TenantStreamSpec> specs(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    specs[t].kind = (t % 2 == 0) ? serve::WorkloadKind::zipf
                                 : serve::WorkloadKind::uniform;
    specs[t].opts = workload;
    specs[t].opts.pairs = std::max<std::size_t>(1, workload.pairs / tenants);
    serve::TenantConfig cfg;
    cfg.ensemble = fp0;
    cfg.policy = ((t / 2) % 2 == 0) ? serve::AggregatePolicy::min
                                    : serve::AggregatePolicy::median;
    cfg.cache_capacity = capacity;
    server.add_tenant(cfg);
  }

  const auto stream = serve::make_multi_tenant_workload(g, specs, seed);
  std::cout << tenants << " tenants, " << stream.size()
            << " interleaved queries in " << batches << " batches, "
            << num_threads() << " threads\n";

  std::vector<Weight> out;
  double total_seconds = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    for (const auto& ev : updates) {
      if (ev.batch != b) continue;
      const WeightedEdge& e = edge_list[ev.edge];
      const Weight w_old = dyn->graph().edge_weight(e.u, e.v);
      const Weight w_new = w_old * ev.factor;
      const auto us = dyn->update(e.u, e.v, w_new);
      const std::uint64_t fp = server.load(dyn->snapshot());
      for (std::size_t ten = 0; ten < tenants; ++ten) {
        server.stage_swap(static_cast<serve::TenantId>(ten), fp);
      }
      std::cout << "batch " << b << ": update edge #" << ev.edge << " {"
                << e.u << "," << e.v << "} " << w_old << " -> " << w_new
                << (us.incremental ? " (incremental, " : " (invalidate, ")
                << us.levels_recomputed << " levels recomputed, "
                << us.levels_skipped << " skipped, " << us.trees_rebuilt
                << "/" << opts.trees << " trees rebuilt) -> staged "
                << fp_hex(fp) << " for all tenants\n";
    }
    if (swap_at >= 0 && b == static_cast<std::size_t>(swap_at)) {
      server.stage_swap(0, fp_next);
      std::cout << "batch " << b << ": staged swap tenant 0 -> "
                << fp_hex(fp_next) << " (flips at this batch boundary)\n";
    }
    const std::size_t lo = stream.size() * b / batches;
    const std::size_t hi = stream.size() * (b + 1) / batches;
    const Timer t;
    server.serve(std::span(stream).subspan(lo, hi - lo), out);
    const double s = t.seconds();
    total_seconds += s;
    std::cout << "batch " << b << ": " << hi - lo << " queries in "
              << s * 1e3 << " ms\n";
  }
  std::cout << "total: " << stream.size() << " queries in "
            << total_seconds * 1e3 << " ms = "
            << static_cast<double>(stream.size()) / total_seconds / 1e6
            << " Mq/s; registry holds " << server.registry().size()
            << " ensemble(s), " << server.epochs_retired()
            << " epoch(s) retired\n";

  // The deterministic per-stream ledger: every column is bit-identical at
  // any thread count (the quantities BENCH_server.json gates in CI).
  std::cout << "tenant  workload  policy  epoch  pairs  tree_lookups  "
               "lca_probes  cache_hits  cache_misses  result_hash32\n";
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto& c = server.counters(static_cast<serve::TenantId>(t));
    std::cout << t << "  " << serve::workload_name(specs[t].kind) << "  "
              << serve::policy_name(
                     server.tenant_config(static_cast<serve::TenantId>(t))
                         .policy)
              << "  " << c.epoch << "  " << c.pairs << "  "
              << c.tree_lookups << "  " << c.lca_probes << "  "
              << c.cache_hits << "  " << c.cache_misses << "  "
              << c.result_hash32() << "\n";
  }
  return 0;
}

/// The replay subcommand: one workload, served --repeat times.
int run_replay(const Graph& g, const serve::FrtEnsemble& ensemble,
               std::uint64_t seed, const serve::WorkloadOptions& workload,
               const Cli& cli) {
  const auto kind = static_cast<serve::WorkloadKind>(cli.choice("workload"));
  // Stream ids ≥ 2^32 are reserved for non-tree consumers of the master
  // seed (tree slots use 0..k), so workload draws never alias tree draws.
  Rng workload_rng(split_seed(seed, std::uint64_t{1} << 32));
  const auto pairs = serve::make_workload(g, kind, workload, workload_rng);
  const auto policy = static_cast<serve::AggregatePolicy>(cli.choice("policy"));

  const auto repeat = cli.get_int("repeat");
  // Caller-owned hot-pair cache: persists across the repeat loop, so
  // repeats after the first serve the hot set from the cache.
  std::optional<serve::HotPairCache> cache;
  if (cli.has("cache")) {
    cache.emplace(static_cast<std::size_t>(cli.get_int("cache-capacity")));
  }
  std::vector<Weight> out;
  serve::FrtEnsemble::BatchStats stats;
  double best_seconds = 0.0;
  for (std::int64_t r = 0; r < repeat; ++r) {
    const Timer t;
    stats = ensemble.query_batch(pairs, policy, out,
                                 cache ? &*cache : nullptr);
    const double s = t.seconds();
    if (r == 0 || s < best_seconds) best_seconds = s;
  }

  RunningStats dist;
  for (const Weight d : out) dist.add(d);
  const double qps = static_cast<double>(stats.pairs) / best_seconds;
  std::cout << "workload " << serve::workload_name(kind) << ", policy "
            << serve::policy_name(policy) << ": " << stats.pairs
            << " queries in " << best_seconds * 1e3 << " ms (best of "
            << repeat << ") = " << qps / 1e6 << " Mq/s, "
            << best_seconds * 1e9 / static_cast<double>(stats.pairs)
            << " ns/query, " << num_threads() << " threads\n";
  std::cout << "counters: " << stats.tree_lookups << " tree lookups, "
            << stats.lca_probes << " LCA probes\n";
  if (cache) {
    const auto& cs = cache->stats();
    std::cout << "cache (" << cache->capacity() << " slots): "
              << stats.cache_hits << " hits / " << stats.cache_misses
              << " misses last batch; cumulative " << cs.hits << " hits, "
              << cs.misses << " misses, " << cs.admissions << " admissions, "
              << cs.conflicts << " conflicts\n";
  }
  std::cout << "distances: mean " << dist.mean() << ", max " << dist.max()
            << "\n";

  if (cli.has("stretch")) {
    // Exact quality of the served values: n Dijkstras + n²/2 queries.
    const Timer t;
    const auto q = serve::measure_stretch_quality(g, ensemble, policy);
    std::cout << "stretch (exact, " << q.pairs << " pairs, policy "
              << serve::policy_name(policy) << ", " << t.millis()
              << " ms): distance-weighted avg " << q.weighted_stretch
              << ", mean " << q.mean_stretch << ", max " << q.max_stretch
              << ", min " << q.min_stretch << "\n";
    PMTE_CHECK(q.pairs == 0 || q.min_stretch >= 1.0,
               "served distance below dist_G — dominance violated");
  }
  return 0;
}

int serve_main(int argc, char** argv) {
  const std::string_view command = argc > 1 ? argv[1] : "";
  const bool tenants = command == "tenants";
  if (!tenants && command != "replay") {
    std::cerr << "usage: serve_queries replay|tenants [--flag=value ...]\n";
    return 2;
  }
  // The subcommand takes argv[0]'s place, so Cli reads only the flags.
  const Cli cli(argc - 1, argv + 1, schema(tenants));
  serve::EnsembleOptions opts;
  opts.trees = static_cast<std::size_t>(cli.get_int("trees"));
  opts.pipeline = static_cast<serve::EnsemblePipeline>(cli.choice("pipeline"));
  // The three checks that span flags, made before the graph is built.
  if (!tenants && cli.has("cache-capacity") && !cli.has("cache")) {
    std::cerr << "--cache-capacity needs --cache (replay serves without a "
                 "hot-pair cache otherwise)\n";
    return 2;
  }
  if (tenants && cli.has("swap-at") &&
      cli.get_int("swap-at") >= cli.get_int("batches")) {
    std::cerr << "--swap-at=" << cli.get_int("swap-at") << ": not in [0, "
              << cli.get_int("batches") - 1 << "]\n";
    return 2;
  }
  if (tenants && !cli.get("update-file").empty() &&
      opts.pipeline != serve::EnsemblePipeline::oracle) {
    std::cerr << "--update-file needs --pipeline=oracle (the dynamic path "
                 "maintains the oracle's level caches)\n";
    return 2;
  }
  set_num_threads(static_cast<int>(cli.get_int("threads")));

  // Observability opt-in: either flag switches the layer on for the whole
  // run; exports are written when serve_main() exits (ObsExportGuard).
  const ObsExportGuard obs_guard{cli.get("metrics-out"), cli.get("trace-out")};
  if (!obs_guard.metrics_path.empty() || !obs_guard.trace_path.empty()) {
    obs::ObsConfig cfg;
    cfg.metrics = true;
    cfg.trace = !obs_guard.trace_path.empty();
    obs::configure(cfg);
  }

  const auto& family = cli.get("graph");
  const std::uint64_t seed = cli.seed();
  // The shared family dispatcher: a (family, n, seed) triple names the
  // same graph here, in the test fixtures, and across runs — which is
  // what makes the persisted fingerprint check on --load meaningful.
  const Graph g =
      make_family_graph(family, static_cast<Vertex>(cli.get_int("n")), seed);
  std::cout << "graph: " << family << ", " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";

  // --- Build or load the ensemble. ---------------------------------------
  serve::FrtEnsemble ensemble;
  const auto& load_path = cli.get("load");
  if (!load_path.empty()) {
    // The copying load reads the artefact through the same mapping --mmap
    // uses, so a device, FIFO or empty file is refused up front.
    const Timer t;
    ensemble = serve::FrtEnsemble::load(serve::MappedFile(load_path).bytes());
    std::cout << "loaded " << ensemble.num_trees() << "-tree ensemble from "
              << load_path << " in " << t.millis() << " ms\n";
    // The persisted fingerprint pins the exact graph (structure + weight
    // bits); refusing a mismatch beats silently serving another graph's
    // distances.
    PMTE_CHECK(ensemble.num_vertices() == g.num_vertices() &&
                   ensemble.graph_fingerprint() ==
                       serve::FrtEnsemble::fingerprint(g),
               "the ensemble was built over another graph (" +
                   std::to_string(ensemble.num_vertices()) +
                   " vertices; this one has " +
                   std::to_string(g.num_vertices()) +
                   "): check --graph, --n and --seed");
  } else {
    ensemble = serve::FrtEnsemble::build(g, seed, opts);
    const auto& st = ensemble.build_stats();
    std::cout << "built " << ensemble.num_trees() << " trees ("
              << cli.get("pipeline") << ") in " << st.seconds * 1e3
              << " ms: " << st.index_nodes << " flat nodes, "
              << st.relaxations << " relaxations, " << st.work
              << " semiring ops\n";
  }

  const auto& save_path = cli.get("save");
  if (!save_path.empty()) {
    const auto bytes = save(ensemble, save_path);
    std::cout << "saved ensemble to " << save_path << " (" << bytes
              << " bytes)\n";
  }

  // --- Zero-copy mmap serving path. --------------------------------------
  if (cli.has("mmap")) {
    // Map an existing artefact when one is on disk (--load, or the file
    // --save just wrote); otherwise persist to a temp file named after the
    // registry fingerprint and unlink it right after mapping (POSIX keeps
    // the inode alive for the mapping's lifetime).
    std::string map_path = !load_path.empty() ? load_path : save_path;
    const bool temp = map_path.empty();
    if (temp) {
      map_path =
          "pmte_mmap_" + fp_hex(ensemble.registry_fingerprint()) + ".tmp";
      (void)save(ensemble, map_path);
    }
    serve::reset_load_path_counters();
    const Timer t;
    auto mapped = serve::FrtEnsemble::load_mapped(map_path);
    const double load_ms = t.millis();
    if (temp) std::remove(map_path.c_str());
    const auto& lc = serve::load_path_counters();
    std::cout << "mapped " << mapped.num_trees() << "-tree ensemble from "
              << map_path << " in " << load_ms << " ms ("
              << mapped.mapped_bytes() << " bytes mapped, "
              << lc.sections_mapped << " sections mapped, "
              << lc.sections_copied << " sections copied, "
              << lc.bulk_bytes_copied << " bulk bytes copied)\n";
    PMTE_CHECK(lc.bulk_bytes_copied == 0,
               "mapped load copied bulk array bytes — the zero-copy "
               "contract is broken");
    PMTE_CHECK(mapped == ensemble,
               "mapped ensemble differs from the built/loaded one");
    ensemble = std::move(mapped);
  }

  serve::WorkloadOptions workload;
  workload.pairs = static_cast<std::size_t>(cli.get_int("queries"));
  workload.zipf_s = cli.get_double("zipf-s");
  if (tenants) {
    return run_tenants(g, std::move(ensemble), opts, seed, workload, cli);
  }
  return run_replay(g, ensemble, seed, workload, cli);
}

}  // namespace

// A rejected input (an artefact with trailing bytes, a malformed update
// file, an unwritable path) exits 1 with its message; a failed check
// prints its message without the source location.
int main(int argc, char** argv) {
  try {
    return serve_main(argc, argv);
  } catch (const pmte::CheckError& err) {
    std::cerr << "serve_queries: " << err.message() << "\n";
    return 1;
  } catch (const std::logic_error& err) {
    std::cerr << "serve_queries: " << err.what() << "\n";
    return 1;
  }
}
