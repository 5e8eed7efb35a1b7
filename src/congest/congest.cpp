#include "src/congest/congest.hpp"

#include <algorithm>
#include <cmath>

#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/parallel.hpp"
#include "src/spanner/baswana_sen.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

namespace {

/// Incremental max_v |x_v| across engine iterations.  The round accounting
/// needs the maximum before *every* step, and a full Θ(n) rescan per
/// iteration would dwarf the o(n) work of the engine's sparse rounds.
/// List sizes change only at the engine's frontier (the vertices whose
/// state the last step changed), so the tracker keeps a per-vertex size
/// array plus a size histogram and updates both from the frontier —
/// O(|frontier|) per iteration, same maxima as the rescan, and
/// deterministic because the frontier is.
class ListSizeTracker {
 public:
  explicit ListSizeTracker(const std::vector<DistanceMap>& states) {
    size_of_.resize(states.size());
    for (std::size_t v = 0; v < states.size(); ++v) {
      size_of_[v] = states[v].size();
      grow_histogram(size_of_[v]);
      ++count_[size_of_[v]];
      max_ = std::max(max_, size_of_[v]);
    }
  }

  /// Apply the state changes of one step (`changed` = engine frontier).
  void apply(const std::vector<Vertex>& changed,
             const std::vector<DistanceMap>& states) {
    for (const Vertex v : changed) {
      const std::size_t now = states[v].size();
      const std::size_t was = size_of_[v];
      if (now == was) continue;
      --count_[was];
      grow_histogram(now);
      ++count_[now];
      size_of_[v] = now;
      max_ = std::max(max_, now);
    }
    while (max_ > 0 && count_[max_] == 0) --max_;
  }

  [[nodiscard]] std::size_t max() const noexcept { return max_; }

 private:
  void grow_histogram(std::size_t size) {
    if (size >= count_.size()) count_.resize(size + 1, 0);
  }

  std::vector<std::size_t> size_of_;
  std::vector<std::size_t> count_;  // histogram: count_[s] lists of size s
  std::size_t max_ = 0;
};

/// Unweighted hop diameter estimate via double BFS (exact on trees, a
/// 2-approximation in general — good enough for round accounting).
unsigned hop_diameter_estimate(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  auto h0 = bfs_hops(g, 0);
  Vertex far = 0;
  unsigned best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (h0[v] != ~0U && h0[v] > best) {
      best = h0[v];
      far = v;
    }
  }
  auto h1 = bfs_hops(g, far);
  unsigned diam = 0;
  for (unsigned h : h1) {
    if (h != ~0U) diam = std::max(diam, h);
  }
  return diam;
}

}  // namespace

CongestRun congest_frt_khan(const Graph& g, const VertexOrder& order) {
  PMTE_OBS_SPAN("congest.khan",
                static_cast<std::int64_t>(g.num_vertices()), "vertices");
  PMTE_CHECK(order.n() == g.num_vertices(), "order size mismatch");
  CongestRun run;
  run.embedding_stretch = 1.0;
  const LeListAlgebra alg;
  MbfEngine<LeListAlgebra> engine(g, alg, le_initial_state(order));
  ListSizeTracker sizes(engine.states());
  const unsigned cap = std::max<unsigned>(1, g.num_vertices());
  for (unsigned i = 0; i < cap; ++i) {
    // Every vertex transmits its current list over each incident edge; the
    // per-edge pipeline makes an iteration cost max_v |x_v| rounds.
    run.rounds_iterations += sizes.max();
    const bool changed = engine.step();
    sizes.apply(engine.frontier(), engine.states());
    ++run.le.iterations;
    if (!changed) {
      run.le.converged = true;
      break;
    }
  }
  run.le.lists = engine.take_states();
  run.rounds = run.rounds_setup + run.rounds_iterations;
  return run;
}

SkeletonRun congest_frt_skeleton(const Graph& g, const SkeletonOptions& opts,
                                 Rng& rng) {
  PMTE_OBS_SPAN("congest.skeleton",
                static_cast<std::int64_t>(g.num_vertices()), "vertices");
  const Vertex n = g.num_vertices();
  PMTE_CHECK(n >= 2, "skeleton algorithm needs n >= 2");
  SkeletonRun out;
  CongestRun& run = out.run;

  const auto ell = opts.ell != 0
                       ? opts.ell
                       : static_cast<unsigned>(std::ceil(std::sqrt(
                             static_cast<double>(n))));
  const double log_n = std::log2(std::max<double>(n, 2));
  auto skeleton_target = static_cast<std::size_t>(
      std::ceil(opts.size_constant * ell * log_n));
  skeleton_target = std::min<std::size_t>(std::max<std::size_t>(1, skeleton_target), n);

  // Sample S and draw the vertex order with S ranked first (§8.2 requires
  // s < v for all s ∈ S, v ∈ V∖S; Lemma 4.9 of [22] shows the induced
  // dependence keeps the expected stretch O(log n)).
  auto shuffled = random_permutation(n, rng);
  std::vector<Vertex> skeleton(shuffled.begin(),
                               shuffled.begin() + skeleton_target);
  out.order.vertex_of = shuffled;
  out.order.rank_of = invert_permutation(shuffled);
  run.skeleton_size = skeleton.size();

  // Setup: BFS tree + ID threshold search (O(D) rounds, §8.2 step (1)).
  const unsigned diam = hop_diameter_estimate(g);
  run.rounds_setup += diam + 1;

  // Skeleton graph: ℓ-hop distances between skeleton vertices, via the
  // frontier-driven engine (dist^ℓ = ℓ scalar MBF iterations).  Round cost
  // per the partial-distance-estimation routine of [31]: Õ(ℓ + |S|).
  std::vector<std::vector<Weight>> sk_dist(skeleton.size());
  parallel_for(skeleton.size(), [&](std::size_t i) {
    sk_dist[i] = mbf_sssp(g, skeleton[i], ell);
  });
  run.rounds_setup += ell + static_cast<std::uint64_t>(skeleton.size() *
                                                       std::ceil(log_n));

  // Relabel skeleton to 0..|S|-1, build G_S, sparsify with Baswana–Sen.
  // (The relabelling is positional: skeleton[i] ↔ i, so no reverse lookup
  // table is needed anywhere below.)
  std::vector<WeightedEdge> gs_edges;
  for (std::size_t i = 0; i < skeleton.size(); ++i) {
    for (std::size_t j = i + 1; j < skeleton.size(); ++j) {
      const Weight d = sk_dist[i][skeleton[j]];
      if (is_finite(d) && d > 0.0) {
        gs_edges.push_back(WeightedEdge{static_cast<Vertex>(i),
                                        static_cast<Vertex>(j), d});
      }
    }
  }
  const Graph gs = Graph::from_edges(static_cast<Vertex>(skeleton.size()),
                                     std::move(gs_edges));
  const auto spanner = baswana_sen_spanner(gs, opts.spanner_k, rng);
  run.skeleton_spanner_edges = spanner.edges;

  // Broadcasting the spanner over the BFS tree costs O(|E'_S| + D) rounds
  // (pipelined); afterwards the skeleton lists are local knowledge.
  run.rounds_setup += spanner.edges + diam;

  // Virtual graph H: G stretched by (2k−1) plus the skeleton spanner
  // (Equations (8.6)–(8.8)).
  const double alpha = 2.0 * opts.spanner_k - 1.0;
  std::vector<WeightedEdge> h_edges;
  for (const auto& e : g.edge_list()) {
    h_edges.push_back(WeightedEdge{e.u, e.v, alpha * e.weight});
  }
  for (const auto& e : spanner.spanner.edge_list()) {
    h_edges.push_back(WeightedEdge{skeleton[e.u], skeleton[e.v], e.weight});
  }
  out.virtual_graph = Graph::from_edges(n, std::move(h_edges));
  run.embedding_stretch = alpha;

  // Jump start: x̄⁽⁰⁾ = r^V A^{|S|}_{G'_S} x⁽⁰⁾ — local computation (the
  // spanner is global knowledge), zero rounds.  Simulated by iterating the
  // LE algebra on the spanner edges.  Non-skeleton vertices are isolated
  // in the spanner graph — they stay singleton and make no offers — so the
  // engine starts from the skeleton support instead of supp(x⁽⁰⁾) = V.
  const LeListAlgebra alg;
  std::vector<WeightedEdge> spanner_on_v;
  for (const auto& e : spanner.spanner.edge_list()) {
    spanner_on_v.push_back(WeightedEdge{skeleton[e.u], skeleton[e.v], e.weight});
  }
  const Graph spanner_graph = Graph::from_edges(n, std::move(spanner_on_v));
  MbfEngine<LeListAlgebra> jump_engine(spanner_graph, alg);
  std::vector<Vertex> jump_frontier;
  for (Vertex v = 0; v < n; ++v) {
    if (spanner_graph.degree(v) > 0) jump_frontier.push_back(v);
  }
  jump_engine.reset_with_frontier(le_initial_state(out.order),
                                  std::move(jump_frontier));
  for (std::size_t i = 0; i <= skeleton.size(); ++i) {
    if (!jump_engine.step()) break;
  }

  // Finish: ℓ iterations of r^V A_{G,2k−1} (Equation (8.10)); each costs
  // max_v |x_v| rounds as in the Khan algorithm.  The jump-start states
  // are already filtered fixpoint states, so the initial filter is skipped.
  MbfEngine<LeListAlgebra> engine(
      g, alg, jump_engine.take_states(),
      MbfOptions{.weight_scale = alpha, .filter_initial = false});
  ListSizeTracker sizes(engine.states());
  for (unsigned i = 0; i < ell; ++i) {
    run.rounds_iterations += sizes.max();
    const bool changed = engine.step();
    sizes.apply(engine.frontier(), engine.states());
    ++run.le.iterations;
    if (!changed) {
      run.le.converged = true;
      break;
    }
  }
  run.le.lists = engine.take_states();
  run.rounds = run.rounds_setup + run.rounds_iterations;
  return out;
}

}  // namespace pmte
