// serve_queries — build (or load) a flat FRT-ensemble distance index and
// replay a query workload against it, reporting throughput.
//
//   ./serve_queries [--graph=gnm] [--n=4096] [--seed=42] [--trees=8]
//                   [--pipeline=oracle|direct|sequential]
//                   [--policy=min|median]
//                   [--workload=uniform|bfs_local|zipf] [--queries=200000]
//                   [--zipf-s=1.1] [--repeat=3]
//                   [--cache] [--cache-capacity=65536]
//                   [--save=FILE] [--load=FILE] [--threads=N] [--roundtrip]
//                   [--mmap] [--stretch]
//                   [--tenants=N [--batches=8] [--swap-at=BATCH]
//                    [--update-file=FILE]]
//                   [--metrics-out=FILE] [--trace-out=FILE]
//
// The embedding lifecycle end to end: sample k FRT trees (one master
// seed, split per tree), compact them into FrtIndex ancestor rows,
// optionally persist/restore the whole ensemble in the versioned binary
// format, then serve batched pair queries via the parallel batch API.
// --roundtrip additionally pushes the ensemble through an in-memory
// save→load cycle and fails loudly if anything changes.
// --mmap switches the replay onto the zero-copy serving path: the
// ensemble is mapped straight from an artefact on disk (--load/--save
// when given, else a temp file written and unlinked on the spot), the
// load-path counters must report zero bulk bytes copied, and the mapped
// ensemble must compare equal to the built/loaded one before it takes
// over — served doubles and counters are bit-identical either way.
// --cache attaches a hot-pair cache to the replay (deterministic
// first-touch admission; served values are bit-identical to the uncached
// run, and the hit/miss counters are logical — thread-count independent).
// --stretch measures the served quality exactly against brute-force
// Dijkstra over every pair — the Kao–Lee–Wagner distance-weighted average
// stretch plus mean/max/min — and is meant for corpus-size graphs (it runs
// n Dijkstras and n²/2 queries).
//
// --policy, --workload, --repeat, --cache and --stretch belong to the
// single-workload replay, --batches, --swap-at and --update-file to the
// many-tenant scenario; a flag the chosen mode would ignore exits 2, and
// so do unknown flags and out-of-range counts (reject_bad_values).
//
// --tenants N switches to the many-tenant scenario (src/serve/server.hpp):
// N tenant streams with alternating zipf/uniform shapes and min/median
// policies, interleaved deterministically into --batches batches and
// served through the Server's route/execute/scatter pipeline, one hot-pair
// cache per stream.  --swap-at B builds a second ensemble (master seed
// seed+1) while the first epoch serves and stages a hot-swap of tenant 0
// that flips at the start of batch B; the drained epoch retires from the
// registry.  The final per-tenant counter table (pairs, tree lookups, LCA
// probes, cache hits/misses, result hash) is bit-identical at any thread
// count — the same quantities the CI gate pins in BENCH_server.json.
//
// --update-file FILE replays live edge-weight updates through the
// dynamic-maintenance path (docs/DYNAMIC.md): each non-blank, non-comment
// line is exactly "<batch> <edge-index> <factor>", every token parsed in
// full, with a finite factor > 0 (anything else fails the run, naming
// file:line) — before serving batch <batch>, edge
// <edge-index> of the graph's canonical edge list re-weights to
// old·<factor> in a maintained DynamicEnsemble, and the fresh snapshot is
// loaded and staged to *every* tenant, so the new metric flips in at the
// batch boundary.  Requires --tenants and --pipeline=oracle.
//
// --metrics-out FILE / --trace-out FILE turn the observability layer on
// (docs/OBSERVABILITY.md) and, when the process exits, write Prometheus
// text exposition / Chrome trace-event JSON for the whole run.  Purely
// additive: enabling them never changes served doubles or counters.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/obs/obs.hpp"
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

serve::EnsemblePipeline parse_pipeline(const std::string& name) {
  if (name == "oracle") return serve::EnsemblePipeline::oracle;
  if (name == "direct") return serve::EnsemblePipeline::direct;
  if (name == "sequential") return serve::EnsemblePipeline::sequential;
  std::cerr << "unknown pipeline: " << name << "\n";
  std::exit(2);
}

/// Exit 2 before the build on a bad --zipf-s or a count out of range:
/// --tenants and --threads may be 0, the other counts must be at least 1,
/// and --swap-at must name one of the --batches batches.
void reject_bad_values(const Cli& cli) {
  const auto check = [&](const char* flag, std::int64_t lo, std::int64_t hi) {
    const auto v = cli.get_int(flag, lo);
    if (v >= lo && v <= hi) return;
    std::cerr << "--" << flag << "=" << v << ": not in [" << lo << ", " << hi
              << "]\n";
    std::exit(2);
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  check("tenants", 0, kMax);
  check("threads", 0, kMax);
  for (const char* flag :
       {"n", "trees", "queries", "repeat", "cache-capacity", "batches"}) {
    check(flag, 1, kMax);
  }
  if (cli.has("swap-at")) check("swap-at", 0, cli.get_int("batches", 8) - 1);
  (void)cli.get_double("zipf-s", 1.1);
}

/// Exit 2 on a flag the chosen mode would ignore: the many-tenant scenario
/// (--tenants=N, N > 0) and the single-workload replay read disjoint flags.
void reject_inapplicable_flags(const Cli& cli) {
  const bool tenants = cli.get_int("tenants", 0) > 0;
  const std::vector<std::string> ignored =
      tenants ? std::vector<std::string>{"stretch", "workload", "policy",
                                         "repeat", "cache"}
              : std::vector<std::string>{"update-file", "batches", "swap-at"};
  for (const auto& flag : ignored) {
    if (!cli.has(flag)) continue;
    std::cerr << "--" << flag << " does not apply to "
              << (tenants ? "the many-tenant scenario (--tenants)"
                          : "the single-workload replay (no --tenants)")
              << "\n";
    std::exit(2);
  }
}

std::string fp_hex(std::uint64_t fp) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << fp;
  return os.str();
}

/// Writes the requested exports when main() returns — through *any* exit
/// path, including the early `return 1`s — so a failed run still leaves
/// its metrics/trace behind for diagnosis.
struct ObsExportGuard {
  std::string metrics_path;
  std::string trace_path;

  ~ObsExportGuard() {
#if PMTE_OBS
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
#else
    if (!metrics_path.empty() || !trace_path.empty()) {
      std::cerr << "warning: built with PMTE_OBS=0 — "
                   "--metrics-out/--trace-out ignored\n";
    }
#endif
  }
};

/// The many-tenant scenario: N interleaved tenant streams through one
/// Server, optionally with a mid-stream epoch hot-swap of tenant 0.
int run_tenant_scenario(const Graph& g, serve::FrtEnsemble base,
                        std::uint64_t seed, const Cli& cli) {
  const auto tenants = static_cast<std::size_t>(cli.get_int("tenants", 4));
  const auto batches = static_cast<std::size_t>(cli.get_int("batches", 8));
  const auto swap_at = cli.get_int("swap-at", -1);
  const auto total_queries =
      static_cast<std::size_t>(cli.get_int("queries", 200000));
  const auto cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache-capacity", 4096));
  const std::size_t trees = base.num_trees();

  serve::Server server;
  const std::uint64_t fp0 = server.load(std::move(base));
  std::cout << "registry: serving ensemble " << fp_hex(fp0) << " ("
            << trees << " trees)\n";

  // Load the replacement epoch *before* any flip: the expensive build
  // happens while the old epoch still serves; the flip itself is a
  // pointer assignment at a batch boundary.
  std::uint64_t fp_next = 0;
  if (swap_at >= 0) {
    serve::EnsembleOptions opts;
    opts.trees = trees;
    opts.pipeline = parse_pipeline(cli.get("pipeline", "oracle"));
    const Timer t;
    fp_next = server.load(serve::FrtEnsemble::build(g, seed + 1, opts));
    std::cout << "registry: loaded replacement " << fp_hex(fp_next)
              << " (master seed " << seed + 1 << ") in " << t.millis()
              << " ms, old epoch still serving\n";
  }

  // --- Dynamic update replay (--update-file, docs/DYNAMIC.md). ----------
  // Each non-blank, non-comment line is "<batch> <edge-index> <factor>":
  // before serving that batch, the edge re-weights to old·factor through
  // the maintained DynamicEnsemble and the fresh snapshot is staged to
  // every tenant — the new metric flips in at the batch boundary.
  struct UpdateEvent {
    std::size_t batch;
    std::size_t edge;
    double factor;
  };
  std::vector<UpdateEvent> updates;
  std::optional<serve::DynamicEnsemble> dyn;
  std::vector<WeightedEdge> edge_list;
  const auto update_path = cli.get("update-file", "");
  if (!update_path.empty()) {
    std::ifstream in(update_path);
    if (!in) {
      std::cerr << "cannot open " << update_path << "\n";
      return 1;
    }
    // Every malformed line is reported before the run fails, so one pass
    // over a bad file shows all of its problems.
    std::string line;
    std::size_t bad_lines = 0;
    for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ls(line);
      const std::vector<std::string> tokens{
          std::istream_iterator<std::string>(ls), {}};
      if (tokens.empty()) continue;
      UpdateEvent ev{};
      if (tokens.size() != 3 || !parse_token(tokens[0], ev.batch) ||
          !parse_token(tokens[1], ev.edge) ||
          !parse_token(tokens[2], ev.factor) || !std::isfinite(ev.factor) ||
          ev.factor <= 0.0 || ev.edge >= g.num_edges() ||
          ev.batch >= batches) {
        std::cerr << update_path << ':' << line_no
                  << ": bad update line (want \"<batch> <edge-index> "
                     "<factor>\" with a batch below --batches, a valid edge "
                     "and a finite factor > 0): "
                  << line << "\n";
        ++bad_lines;
        continue;
      }
      updates.push_back(ev);
    }
    if (bad_lines > 0) return 1;
    if (cli.get("pipeline", "oracle") != std::string("oracle")) {
      std::cerr << "--update-file needs --pipeline=oracle (the dynamic "
                   "path maintains the oracle's level caches)\n";
      return 1;
    }
    serve::EnsembleOptions dopts;
    dopts.trees = trees;
    dopts.pipeline = serve::EnsemblePipeline::oracle;
    const Timer t;
    dyn.emplace(g, seed, dopts);
    edge_list = g.edge_list();
    std::cout << "dynamic: maintaining " << trees << " trees for "
              << updates.size() << " update(s), built in " << t.millis()
              << " ms\n";
  }

  // Tenant streams: alternating zipf/uniform shapes, min/median policies,
  // one hot-pair cache per stream.
  std::vector<serve::TenantStreamSpec> specs(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    specs[t].kind = (t % 2 == 0) ? serve::WorkloadKind::zipf
                                 : serve::WorkloadKind::uniform;
    specs[t].opts.pairs = std::max<std::size_t>(1, total_queries / tenants);
    specs[t].opts.zipf_s = cli.get_double("zipf-s", 1.1);
    serve::TenantConfig cfg;
    cfg.ensemble = fp0;
    cfg.policy = ((t / 2) % 2 == 0) ? serve::AggregatePolicy::min
                                    : serve::AggregatePolicy::median;
    cfg.cache_capacity = cache_capacity;
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
                << "/" << trees << " trees rebuilt) -> staged "
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

int serve_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown(
      {"graph", "n", "seed", "trees", "pipeline", "policy", "workload",
       "queries", "zipf-s", "repeat", "cache", "cache-capacity", "save",
       "load", "threads", "roundtrip", "mmap", "stretch", "tenants",
       "batches", "swap-at", "update-file", "metrics-out", "trace-out"});
  reject_inapplicable_flags(cli);
  reject_bad_values(cli);
  const auto threads = cli.get_int("threads", 0);
  if (threads > 0) set_num_threads(static_cast<int>(threads));

  // Observability opt-in: either flag switches the layer on for the whole
  // run; exports are written when main() exits (see ObsExportGuard).
  const ObsExportGuard obs_guard{cli.get("metrics-out", ""),
                                 cli.get("trace-out", "")};
  if (!obs_guard.metrics_path.empty() || !obs_guard.trace_path.empty()) {
    obs::ObsConfig cfg;
    cfg.metrics = true;
    cfg.trace = !obs_guard.trace_path.empty();
    obs::configure(cfg);
  }

  const auto family = cli.get("graph", "gnm");
  const auto n = static_cast<Vertex>(cli.get_int("n", 4096));
  const std::uint64_t seed = cli.seed(42);
  // The shared family dispatcher: a (family, n, seed) triple names the
  // same graph here, in the test fixtures, and across runs — which is
  // what makes the persisted fingerprint check on --load meaningful.
  const Graph g = make_family_graph(family, n, seed);
  std::cout << "graph: " << family << ", " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";

  // --- Build or load the ensemble. ---------------------------------------
  serve::FrtEnsemble ensemble;
  const auto load_path = cli.get("load", "");
  if (!load_path.empty()) {
    // The copying load reads the artefact through the same mapping --mmap
    // uses, so a device, FIFO or empty file is refused up front.
    const Timer t;
    ensemble = serve::FrtEnsemble::load(serve::MappedFile(load_path).bytes());
    std::cout << "loaded " << ensemble.num_trees() << "-tree ensemble from "
              << load_path << " in " << t.millis() << " ms\n";
    if (ensemble.num_vertices() != g.num_vertices()) {
      std::cerr << "ensemble was built for " << ensemble.num_vertices()
                << " vertices, graph has " << g.num_vertices() << "\n";
      return 1;
    }
    // The persisted fingerprint pins the exact graph (structure + weight
    // bits); refusing a mismatch beats silently serving another graph's
    // distances.
    if (ensemble.graph_fingerprint() !=
        serve::FrtEnsemble::fingerprint(g)) {
      std::cerr << "ensemble fingerprint does not match this graph — it "
                   "was built over a different graph/seed/family\n";
      return 1;
    }
  } else {
    serve::EnsembleOptions opts;
    opts.trees = static_cast<std::size_t>(cli.get_int("trees", 8));
    opts.pipeline = parse_pipeline(cli.get("pipeline", "oracle"));
    ensemble = serve::FrtEnsemble::build(g, seed, opts);
    const auto& st = ensemble.build_stats();
    std::cout << "built " << ensemble.num_trees() << " trees ("
              << cli.get("pipeline", "oracle") << ") in "
              << st.seconds * 1e3 << " ms: " << st.index_nodes
              << " flat nodes, " << st.relaxations << " relaxations, "
              << st.work << " semiring ops\n";
  }

  const auto save_path = cli.get("save", "");
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << save_path << " for writing\n";
      return 1;
    }
    ensemble.save(out);
    std::cout << "saved ensemble to " << save_path << " ("
              << out.tellp() << " bytes)\n";
  }

  if (cli.has("roundtrip")) {
    std::ostringstream buf(std::ios::binary);
    ensemble.save(buf);
    const std::string bytes = buf.str();
    const auto reloaded =
        serve::FrtEnsemble::load(std::as_bytes(std::span(bytes)));
    if (!(reloaded == ensemble)) {
      std::cerr << "FATAL: save->load round-trip changed the ensemble\n";
      return 1;
    }
    std::cout << "round-trip OK (" << bytes.size() << " bytes)\n";
  }

  // --- Zero-copy mmap serving path. --------------------------------------
  if (cli.has("mmap")) {
    // Map an existing artefact when one is on disk (--load, or the file
    // --save just wrote); otherwise persist to a temp file named after the
    // registry fingerprint and unlink it right after mapping (POSIX keeps
    // the inode alive for the mapping's lifetime).
    std::string map_path = !load_path.empty() ? load_path : save_path;
    bool unlink_after = false;
    if (map_path.empty()) {
      map_path = "pmte_mmap_" + fp_hex(ensemble.registry_fingerprint()) +
                 ".tmp";
      std::ofstream tmp(map_path,
                        std::ios::binary | std::ios::trunc);
      if (!tmp) {
        std::cerr << "cannot open " << map_path << " for writing\n";
        return 1;
      }
      ensemble.save(tmp);
      tmp.close();
      unlink_after = true;
    }
    serve::reset_load_path_counters();
    const Timer t;
    auto mapped = serve::FrtEnsemble::load_mapped(map_path);
    const double load_ms = t.millis();
    if (unlink_after) std::remove(map_path.c_str());
    const auto& lc = serve::load_path_counters();
    std::cout << "mapped " << mapped.num_trees() << "-tree ensemble from "
              << map_path << " in " << load_ms << " ms ("
              << mapped.mapped_bytes() << " bytes mapped, "
              << lc.sections_mapped << " sections mapped, "
              << lc.sections_copied << " sections copied, "
              << lc.bulk_bytes_copied << " bulk bytes copied)\n";
    if (lc.bulk_bytes_copied != 0) {
      std::cerr << "FATAL: mapped load copied bulk array bytes — the "
                   "zero-copy contract is broken\n";
      return 1;
    }
    if (!(mapped == ensemble)) {
      std::cerr << "FATAL: mapped ensemble differs from the "
                   "built/loaded one\n";
      return 1;
    }
    ensemble = std::move(mapped);
  }

  // --- Many-tenant scenario (exclusive with the single-workload replay). --
  if (cli.get_int("tenants", 0) > 0) {
    return run_tenant_scenario(g, std::move(ensemble), seed, cli);
  }

  // --- Replay the workload. ----------------------------------------------
  serve::WorkloadOptions wopts;
  wopts.pairs = static_cast<std::size_t>(cli.get_int("queries", 200000));
  wopts.zipf_s = cli.get_double("zipf-s", 1.1);
  const auto kind = serve::parse_workload(cli.get("workload", "uniform"));
  // Stream ids ≥ 2^32 are reserved for non-tree consumers of the master
  // seed (tree slots use 0..k), so workload draws never alias tree draws.
  Rng workload_rng(split_seed(seed, std::uint64_t{1} << 32));
  const auto pairs = serve::make_workload(g, kind, wopts, workload_rng);
  const auto policy = serve::parse_policy(cli.get("policy", "min"));

  const auto repeat = cli.get_int("repeat", 3);
  // Caller-owned hot-pair cache: persists across the repeat loop, so
  // repeats after the first serve the hot set from the cache.
  std::optional<serve::HotPairCache> cache;
  if (cli.has("cache")) {
    cache.emplace(
        static_cast<std::size_t>(cli.get_int("cache-capacity", 65536)));
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
    if (q.pairs > 0 && q.min_stretch < 1.0) {
      std::cerr << "FATAL: served distance below dist_G — dominance "
                   "violated\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

// A rejected input deep in the library (an artefact with trailing bytes,
// a graph family the generator does not know) exits 1 with its message;
// a failed check prints its message without the source location.
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
