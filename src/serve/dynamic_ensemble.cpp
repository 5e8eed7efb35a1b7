#include "src/serve/dynamic_ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>

#include "src/obs/obs.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"
#include "src/util/cli.hpp"

namespace pmte::serve {

namespace {

/// Dynamic-maintenance instruments, bound once on first use.  All logical
/// counts — deterministic at any thread count (the per-scenario values
/// stay gated through BENCH_dynamic.json).
struct DynamicObs {
  obs::Counter& updates;
  obs::Counter& updates_incremental;
  obs::Counter& levels_recomputed;
  obs::Counter& levels_skipped;
  obs::Counter& trees_rebuilt;
  obs::Histogram& update_ns;
};

DynamicObs& dynamic_obs() {
  auto& reg = obs::registry();
  static DynamicObs o{
      reg.counter("pmte_dynamic_updates_total", {},
                  "Edge-weight updates applied to a DynamicEnsemble"),
      reg.counter("pmte_dynamic_updates_incremental_total", {},
                  "Updates absorbed on the warm (decrease) path"),
      reg.counter("pmte_dynamic_levels_recomputed_total", {},
                  "Oracle level runs (warm + full) spent on updates"),
      reg.counter("pmte_dynamic_levels_skipped_total", {},
                  "Oracle level runs skipped during updates"),
      reg.counter("pmte_dynamic_trees_rebuilt_total", {},
                  "Serving indices rebuilt by updates"),
      reg.histogram("pmte_dynamic_update_duration_ns", {},
                    "update() wall time in ns (informational)"),
  };
  return o;
}

}  // namespace

SimulatedGraph DynamicEnsemble::make_h(const Graph& g,
                                       std::uint64_t master_seed,
                                       const EnsembleOptions& opts) {
  PMTE_CHECK(opts.pipeline == EnsemblePipeline::oracle,
             "DynamicEnsemble: oracle pipeline only (the incremental path "
             "is the retained per-level oracle)");
  PMTE_CHECK(opts.trees >= 1, "DynamicEnsemble: needs at least one tree");
  PMTE_CHECK(g.num_vertices() >= 1, "DynamicEnsemble: empty graph");
  return ensemble_simulated_graph(g, master_seed, opts.frt);
}

DynamicEnsemble::DynamicEnsemble(const Graph& g, std::uint64_t master_seed,
                                 const EnsembleOptions& opts)
    : g_(g),
      master_seed_(master_seed),
      opts_(opts),
      h_(make_h(g_, master_seed, opts)) {
  PMTE_OBS_SPAN("dynamic.build", static_cast<std::int64_t>(opts.trees),
                "trees");
  maintainers_.resize(opts.trees);
  indices_.resize(opts.trees);
  auto build_one = [&](std::size_t t) {
    // Streams 1..k, as FrtEnsemble::build — slots are independent, so any
    // schedule produces the same maintainers and indices.
    Rng rng(split_seed(master_seed, 1 + t));
    maintainers_[t] = std::make_unique<DynamicFrt>(h_, rng, opts_.frt);
    indices_[t] = FrtIndex::build(maintainers_[t]->tree());
  };
  parallel_for(opts.trees, build_one, /*grain=*/1);
}

DynamicEnsemble::UpdateStats DynamicEnsemble::update(Vertex u, Vertex v,
                                                     Weight new_weight) {
  PMTE_OBS_SPAN("dynamic.update", static_cast<std::int64_t>(updates_ + 1),
                "update", &dynamic_obs().update_ns);
  const Weight old_weight = g_.edge_weight(u, v);
  PMTE_CHECK(u != v && is_finite(old_weight),
             "DynamicEnsemble::update: {u,v} must be an existing edge");
  // Decrease/increase is decided against the weight the engines actually
  // iterate on: G' may have merged a cheaper hop-set shortcut into {u,v}
  // (augmented() keeps the minimum of parallel edges), so the G'-weight
  // can sit below the graph weight and a graph-level decrease can still
  // *raise* it — which must invalidate, not warm-restart.
  const Weight old_prime = h_.base().edge_weight(u, v);
  const WorkDepthScope scope;
  std::uint64_t runs_before = 0;
  std::uint64_t skips_before = 0;
  for (const auto& m : maintainers_) {
    const auto& s = m->oracle_stats();
    runs_before += s.levels_warm + s.levels_full;
    skips_before += s.levels_skipped;
  }

  // Mutate the shared graph exactly once — every maintainer's engine reads
  // the weight live from H's base, and the oracles must all observe the
  // same old→new transition (the first maintainer must not change what the
  // others see).
  g_.set_edge_weight(u, v, new_weight);
  h_.set_base_edge_weight(u, v, new_weight);

  const WeightedEdge edge{u, v, old_prime};
  std::vector<std::uint8_t> rebuilt(maintainers_.size(), 0);
  auto apply_one = [&](std::size_t t) {
    PMTE_OBS_SPAN("dynamic.update_tree", static_cast<std::int64_t>(t),
                  "tree");
    if (maintainers_[t]->apply_update(edge, new_weight)) {
      indices_[t] = FrtIndex::build(maintainers_[t]->tree());
      rebuilt[t] = 1;
    }
  };
  parallel_for(maintainers_.size(), apply_one, /*grain=*/1);

  UpdateStats stats;
  stats.incremental = new_weight <= old_prime;
  for (std::size_t t = 0; t < maintainers_.size(); ++t) {
    stats.trees_rebuilt += rebuilt[t];
  }
  std::uint64_t runs_after = 0;
  std::uint64_t skips_after = 0;
  for (const auto& m : maintainers_) {
    const auto& s = m->oracle_stats();
    runs_after += s.levels_warm + s.levels_full;
    skips_after += s.levels_skipped;
  }
  stats.levels_recomputed = runs_after - runs_before;
  stats.levels_skipped = skips_after - skips_before;
  stats.relaxations = scope.relaxations_delta();
  ++updates_;

  if (obs::metrics_on()) {
    auto& o = dynamic_obs();
    o.updates.add(1);
    if (stats.incremental) o.updates_incremental.add(1);
    o.levels_recomputed.add(stats.levels_recomputed);
    o.levels_skipped.add(stats.levels_skipped);
    o.trees_rebuilt.add(stats.trees_rebuilt);
  }
  return stats;
}

FrtEnsemble DynamicEnsemble::snapshot() const {
  PMTE_OBS_SPAN("dynamic.snapshot");
  return FrtEnsemble::assemble(indices_, master_seed_,
                               FrtEnsemble::fingerprint(g_));
}

std::vector<UpdateEvent> read_update_file(std::istream& in,
                                          const std::string& name,
                                          std::span<const WeightedEdge> edges,
                                          std::size_t batches) {
  std::vector<UpdateEvent> events;
  std::map<std::size_t, std::string> bad;  // line number → what is wrong
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(ls), {}};
    if (tokens.empty()) continue;
    UpdateEvent ev{.line = line_no};
    if (tokens.size() == 3 && parse_token(tokens[0], ev.batch) &&
        parse_token(tokens[1], ev.edge) && parse_token(tokens[2], ev.factor) &&
        std::isfinite(ev.factor) && ev.factor > 0.0 &&
        ev.edge < edges.size() && ev.batch < batches) {
      events.push_back(ev);
      continue;
    }
    bad[line_no] = "want \"<batch> <edge-index> <factor>\", batch < " +
                   std::to_string(batches) + ", edge-index < " +
                   std::to_string(edges.size()) + ", factor finite > 0): " +
                   line;
  }
  // Apply the events to the weights in order, with the products
  // `serve_queries tenants` takes, so the check sees the doubles it sets.
  std::stable_sort(events.begin(), events.end(),
                   [](const UpdateEvent& a, const UpdateEvent& b) {
                     return a.batch < b.batch;
                   });
  std::vector<Weight> weight;
  for (const WeightedEdge& e : edges) weight.push_back(e.weight);
  for (const UpdateEvent& ev : events) {
    const Weight w = weight[ev.edge] * ev.factor;
    if (is_finite(w) && w > 0.0) {
      weight[ev.edge] = w;
      continue;
    }
    std::ostringstream what;
    what << "edge-index " << ev.edge << "'s weight " << weight[ev.edge]
         << " times " << ev.factor << " is " << w << ", not finite > 0)";
    bad[ev.line] = what.str();
  }
  std::ostringstream message;
  for (const auto& [line_no, what] : bad) {
    message << (message.tellp() > 0 ? "\n" : "") << name << ':' << line_no
            << ": bad update line (" << what;
  }
  PMTE_CHECK(bad.empty(), message.str());
  return events;
}

}  // namespace pmte::serve
