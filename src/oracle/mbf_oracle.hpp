#pragma once
// The oracle for MBF-like queries on the simulated graph H (Section 5).
//
// H is complete, so one true iteration A_H x would cost Ω(n²).  Lemma 5.1
// rewrites the adjacency matrix as
//     A_H = ⊕_{λ=0}^{Λ} P_λ A_λ^d P_λ,
// with A_λ = (1+ε̂)^{Λ−λ}·A_{G'} and P_λ the projection onto vertices of
// level ≥ λ.  Because filtering is congruent (Corollary 2.17), the oracle
// evaluates the ~-equivalent
//     (r^V ⊕_λ P_λ (r^V A_λ)^d P_λ)^h r^V x⁽⁰⁾            (Equation 5.9)
// using only the edges of G' — d·(Λ+1) cheap iterations per H-iteration,
// with intermediate filtering keeping every state small (Theorem 5.2).
//
// The oracle works for any algebra that additionally exposes an aggregation
// of two states (the module ⊕, needed to sum the per-level partials).
//
// == Level reuse (MbfOracle) ==
//
// Applying Equation (5.9) literally is a Jacobi iteration: every
// H-iteration restarts every level from a dense full-frontier copy of x —
// Θ(log n) full runs per H-iteration, Θ(log² n) overall, each re-deriving
// mostly what the previous one already knew.  That operator lives on only
// as the differential tests' reference, in tests/support.  MbfOracle
// instead computes the *same fixpoint* sparsely:
//
//   * Per-level state caches.  Each level keeps the (unprojected) final
//     states of its last run.  A run that reached its fixpoint cached the
//     closure of its input — the strongest possible domination context.
//   * Absorbed-input skips.  A level only re-runs for inputs its cached
//     closure does not already dominate: by congruence (Corollary 2.17),
//     merging absorbed entries and propagating them cannot change the
//     filtered result, so the run is skipped or warm-restarted with the
//     unabsorbed vertices as the frontier.  Warm restarts are exact by the
//     semimodule decomposition r(A^d(x ⊕ δ)) = r(A^d x ⊕ A^d δ): the
//     cached closure is A^d x, only the δ-wave needs propagating.  Levels
//     whose previous run was truncated by the d-step budget fall back to a
//     full support-seeded start (a truncation is not a closure).
//   * Support-seeded full starts.  P_λ x assigns ⊥ below level λ, and ⊥
//     makes no offers, so even a full (re)start seeds its frontier with
//     supp(P_λ x) — for high levels a vanishing fraction of V — instead of
//     the Jacobi operator's all-vertices frontier.
//   * Gauss–Seidel sweeps.  One H-iteration of run() is a sweep over
//     the levels that merges each level's projected output into the
//     iterate immediately, alternating ascending and descending λ (see
//     sweep()).  Later levels therefore see the freshest entries up front
//     and absorb them instead of first deriving weaker ones that the next
//     Jacobi iteration would discard — this is what collapses the
//     per-H-iteration re-flooding.  Per-vertex change stamps tell every
//     level exactly which inputs changed since it last ran, across and
//     within sweeps (the cross-H-iteration frontier).
//
// Both schedules are fair monotone fixpoint iterations of the same
// component operators F_λ = P_λ (r^V A_λ)^d P_λ over an idempotent
// semimodule of finite height, so they converge to the same least fixpoint
// (chaotic-iteration theorem) — the final states are bit-identical, which
// the differential tests check.  Intermediate iterates differ: a sweep is
// not an application of Equation (5.9)'s operator.
//
// == Output-bounded level runs ==
//
// P_λ keeps only the states of V_λ, so a level run counts only through
// what it adds to x at V_λ.  Before every level run that is not skipped
// (a full start or a warm restart) the oracle takes the level's output
// bound from the iterate at V_λ.  For LE lists it is
//     B_λ(k) = max_{u ∈ V_λ} f_{x_u}(k),
// with f_x(k) the dist of x's entry at the largest rank ≤ k, ∞ below x's
// first rank; one pass over those states and one backward pass over the n
// ranks build it.  The run then drops every entry (k, d) with d ≥ B_λ(k):
// its gathers keep an offered entry only when d < min(f_x(k), B_λ(k)),
// and full-start seeds and the warm restart's absorb of x into the cache
// drop such entries.  The merge of the output into x stays unbounded.
// This is exact:
//   * Such an entry is dominated at every V_λ vertex (f_{x_u}(k) ≤ B_λ(k)
//     ≤ d), so merging it changes no x_u, and it stays dominated while x
//     improves.
//   * B_λ never rises with the rank, so every entry that a dropped entry
//     dominates (a larger rank, no smaller dist) or derives (its rank, a
//     larger dist) is dropped too.  Like r (Lemma 7.5, Corollary 2.17),
//     the drop is the projection of a congruence: step for step, a
//     bounded run agrees with the unbounded one on every entry below B_λ.
//   * B_λ only falls from one run of a level to the next (x only improves
//     until restart()), so a cache bounded by an earlier B_λ still agrees
//     with the unbounded cache below the current one.
// So each level's merge into x, the sweep sequence, the fixpoint, the
// trees and every served double are unchanged.  A run that d steps would
// truncate may now reach its fixpoint (only entries that no V_λ state can
// take were still moving) and warm-restart later, which is exact for the
// same reasons; DynamicFrt's warm decreases stay exact because B_λ only
// falls.  A one-vertex level, which can never change x, now seeds nothing
// and makes no relaxation.  The bound is data the oracle owns; it reaches
// the gathers through the oracle's own copy of the algebra, which is
// bounded only if it is an OutputBoundedAlgebra (LeListAlgebra alone).
// Other algebras, SourceDetectionAlgebra included, run unbounded.
//
// == Dynamic updates (update()) ==
//
// The change-stamp machinery doubles as the delta-propagation substrate
// for edge-weight updates of G' (docs/DYNAMIC.md).  The engine reads
// weights live from the graph on every relaxation, so after the caller
// mutates the shared graph, update() only has to decide what the caches
// are still worth: a *decrease* keeps every cached closure a dominated
// lower bound of the new fixpoint (cached entries are old-weight path
// sums, absorbed by the cheaper metric), so iteration continues in place
// with the edge endpoints forced into every level's frontier; an
// *increase* can strand entries the monotone iteration cannot revoke, so
// the caches reset wholesale and the iterate restarts from r^V x⁽⁰⁾ —
// bit-identical to a freshly built oracle either way, which
// tests/test_dynamic.cpp pins against full rebuilds.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "src/mbf/engine.hpp"
#include "src/obs/obs.hpp"
#include "src/simgraph/simulated_graph.hpp"

namespace pmte {

namespace obs_detail {

/// Oracle-wide instruments, bound once on first use.  The outcome-labelled
/// counters mirror OracleStats' per-run ledger as a cumulative process-wide
/// stream (all logical counts — deterministic, ungated; the per-scenario
/// values stay gated through BENCH_*.json).
struct OracleObs {
  obs::Counter& skipped;
  obs::Counter& warm;
  obs::Counter& full;
  obs::Histogram& level_base_iters;
};

inline OracleObs& oracle_obs() {
  auto& reg = obs::registry();
  static OracleObs o{
      reg.counter("pmte_oracle_levels_total", {{"outcome", "skipped"}},
                  "Per-(sweep, level) run outcomes"),
      reg.counter("pmte_oracle_levels_total", {{"outcome", "warm"}},
                  "Per-(sweep, level) run outcomes"),
      reg.counter("pmte_oracle_levels_total", {{"outcome", "full"}},
                  "Per-(sweep, level) run outcomes"),
      reg.histogram("pmte_oracle_level_base_iterations", {},
                    "Base MBF iterations per executed level run (logical "
                    "value — deterministic bucket counts)"),
  };
  return o;
}

}  // namespace obs_detail

template <typename A>
concept OracleAlgebra =
    MbfAlgebra<A> && requires(const A& alg, typename A::State& acc,
                              const typename A::State& y) {
      { alg.aggregate(acc, y) };  // acc ⊕= y in the semimodule
    };

/// An oracle algebra whose level runs drop what their output vertices
/// cannot take ("Output-bounded level runs"): bound_outputs(bound, x, V)
/// writes the bound of V's states into `bound` and bounds the algebra's
/// gathers by it, and drop_bounded(s) drops from s what it rejects.
template <typename A>
concept OutputBoundedAlgebra =
    OracleAlgebra<A> && GatherAlgebra<A> &&
    requires(A& alg, const A& bounded, std::vector<Weight>& bound,
             const std::vector<typename A::State>& x,
             std::span<const Vertex> outputs, typename A::State& s) {
      { alg.bound_outputs(bound, x, outputs) };
      { bounded.drop_bounded(s) };
    };

/// Outcome of MbfOracle::update (see the member doc).
enum class OracleUpdateKind : std::uint8_t {
  kIncremental,  ///< weight decrease absorbed; run() continues in place
  kInvalidated,  ///< weight increase; caches reset, iterate back at r^V x⁽⁰⁾
};

/// Statistics of an oracle run (depth/work proxies for Theorem 5.2).
/// Cumulative over the oracle's life: every run() adds to them.
struct OracleStats {
  unsigned h_iterations = 0;       ///< H-iterations (sweeps)
  unsigned base_iterations = 0;    ///< MBF iterations executed on G'
  bool reached_fixpoint = false;   ///< whether the last run() converged
  /// Level-reuse accounting across all sweeps: per (sweep, level) pair
  /// exactly one of the three counters advances.
  unsigned levels_skipped = 0;  ///< runs skipped (input unchanged/absorbed)
  unsigned levels_warm = 0;     ///< warm restarts from a cached closure
  unsigned levels_full = 0;     ///< full support-seeded (re)starts
};

/// Stateful oracle: the H-iterate plus one engine and per-level state
/// caches, reused across H-iterations.  The simulated graph and the
/// algebra must outlive it.  Not copyable or movable: the engine runs on
/// the oracle's own copy of the algebra, which carries the level bound.
template <OracleAlgebra Algebra>
class MbfOracle {
 public:
  using State = typename Algebra::State;

  /// Install r^V x⁽⁰⁾ (one state per vertex of H) as the iterate.
  MbfOracle(const SimulatedGraph& h, const Algebra& alg,
            std::vector<State> x0, MbfOptions opts = {})
      : h_(&h),
        alg_(&alg),
        level_alg_(alg),
        engine_(h.base(), level_alg_, engine_options(opts)),
        bottom_(alg.bottom()),
        x0_(std::move(x0)) {
    PMTE_CHECK(x0_.size() == h.num_vertices(),
               "MbfOracle: state size mismatch");
    mbf_filter(alg, x0_);
    const unsigned levels = h.max_level() + 1;
    cache_.resize(levels);
    level_vertices_.resize(levels);
    for (unsigned lambda = 0; lambda < levels; ++lambda) {
      level_vertices_[lambda] = h.levels().vertices_at_or_above(lambda);
    }
    restart();
  }

  MbfOracle(const MbfOracle&) = delete;
  MbfOracle& operator=(const MbfOracle&) = delete;

  /// Sweep the iterate in place until a sweep changes nothing (the
  /// filtered fixpoint, ≤ SPD(H) ∈ O(log² n) sweeps w.h.p., Theorem 4.5)
  /// or for `max_h_iterations` sweeps (0 = max(8, ⌊4·log₂² n⌋)).  A run
  /// stopped by its cap resumes exactly.  Returns whether it converged.
  bool run(unsigned max_h_iterations = 0) {
    if (max_h_iterations == 0) {
      const double log_n = std::log2(std::max<double>(h_->num_vertices(), 2));
      max_h_iterations =
          static_cast<unsigned>(std::max(8.0, 4.0 * log_n * log_n));
    }
    bool changed = true;
    for (unsigned i = 0; i < max_h_iterations && changed; ++i) {
      ++stats_.h_iterations;
      PMTE_OBS_SPAN("oracle.step",
                    static_cast<std::int64_t>(stats_.h_iterations),
                    "h_iteration");
      changed = sweep();
    }
    stats_.reached_fixpoint = !changed;
    return !changed;
  }

  /// The current iterate.
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return x_;
  }

  /// Move the iterate out (the oracle is spent afterwards).
  [[nodiscard]] std::vector<State> take_states() noexcept {
    return std::move(x_);
  }

  /// Absorb one already-applied edge-weight change of G'; call run()
  /// afterwards.  The caller mutates the shared graph *first* (several
  /// oracles may observe one H, so the oracle never mutates it); `edge`
  /// carries the OLD weight and `new_weight` must equal the weight now
  /// stored in the graph.
  ///
  /// A decrease is incremental (kIncremental): every kFixpoint cache stays
  /// a valid warm-restart seed — its entries are old-weight path sums,
  /// each dominated by the same path under the cheaper metric, so the new
  /// least fixpoint absorbs them (r(F* ⊕ F_old) = F*) and monotone
  /// iteration from F_old converges to exactly F*.  The edge endpoints are
  /// the only vertices whose *offers* changed while their states did not,
  /// so they are forced into every level's frontier on the next sweep and
  /// the absorbed-input skips are suppressed until each level has re-run
  /// once.
  ///
  /// An increase can strand too-strong cached entries that monotone
  /// iteration cannot revoke, so the oracle resets to its freshly
  /// constructed state (kInvalidated): empty caches and the iterate back
  /// at r^V x⁽⁰⁾ — bit-identical to a brand-new oracle on the mutated
  /// graph.  Only stats() stays cumulative.
  OracleUpdateKind update(const WeightedEdge& edge, Weight new_weight) {
    PMTE_CHECK(edge.u != edge.v && edge.u < h_->num_vertices() &&
                   edge.v < h_->num_vertices(),
               "MbfOracle::update: invalid edge");
    PMTE_CHECK(h_->base().edge_weight(edge.u, edge.v) == new_weight,
               "MbfOracle::update: apply the new weight to the graph first");
    if (new_weight > edge.weight) {
      restart();
      return OracleUpdateKind::kInvalidated;
    }
    // Accumulate endpoints across updates (sorted, duplicate-free — the
    // engine's frontier contract).
    for (const Vertex v : {edge.u, edge.v}) {
      const auto it =
          std::lower_bound(pending_touch_.begin(), pending_touch_.end(), v);
      if (it == pending_touch_.end() || *it != v) pending_touch_.insert(it, v);
    }
    return OracleUpdateKind::kIncremental;
  }

  [[nodiscard]] const OracleStats& stats() const noexcept { return stats_; }

 private:
  enum class CacheState : std::uint8_t { kEmpty, kTruncated, kFixpoint };

  static MbfOptions engine_options(MbfOptions opts) {
    // Per-level inputs are filtered (P_λ preserves that: r ⊥ = ⊥, r
    // idempotent) and warm seeds are filtered on merge.
    opts.filter_initial = false;
    // Force sparse gathers: a relax is a semimodule merge — for the
    // map-valued oracle algebras far more expensive than the byte-sized
    // frontier membership test the dense pull avoids — so the kAuto
    // density heuristic (tuned for scalar states) picks the slower round
    // shape here.  Measured on the 2048-path LE pipeline, sparse rounds
    // cut relaxations ~2× *and* wall time ~1.4×.  kDense remains
    // available as the escape hatch.
    if (opts.mode == MbfMode::kAuto) opts.mode = MbfMode::kSparse;
    return opts;
  }

  // Back to the freshly constructed state; only stats_ is kept.
  void restart() {
    x_ = x0_;
    for (auto& c : cache_) c.clear();
    cache_state_.assign(cache_.size(), CacheState::kEmpty);
    stamp_.assign(x_.size(), 0);
    last_scan_.assign(cache_.size(), 0);
    event_ = 1;
    first_merge_ = 0;
    sweep_count_ = 0;
    pending_touch_.clear();
  }

  // Run the engine for at most d steps (the A_λ^d budget of Lemma 5.1)
  // and store the resulting states in the level cache, remembering whether
  // they are a genuine closure (fixpoint reached) or a d-truncation.
  void run_and_cache(unsigned lambda) {
    PMTE_OBS_SPAN("oracle.level_run", static_cast<std::int64_t>(lambda),
                  "level");
    const unsigned base_before = stats_.base_iterations;
    bool fixpoint = false;
    for (unsigned s = 0; s < h_->hop_bound(); ++s) {
      const bool stepped = engine_.step();
      ++stats_.base_iterations;
      if (!stepped) {
        fixpoint = true;
        break;
      }
    }
    fixpoint = fixpoint || engine_.at_fixpoint();
    cache_[lambda] = engine_.take_states();
    cache_state_[lambda] =
        fixpoint ? CacheState::kFixpoint : CacheState::kTruncated;
    if (obs::metrics_on()) {
      obs_detail::oracle_obs().level_base_iters.record(
          stats_.base_iterations - base_before);
    }
  }

  // Bound the level algebra by what V_λ's states can still take (see
  // "Output-bounded level runs"); a no-op for other algebras.
  void bound_level(unsigned lambda) {
    if constexpr (OutputBoundedAlgebra<Algebra>) {
      level_alg_.bound_outputs(bound_, x_, level_vertices_[lambda]);
    }
  }

  // Full support-seeded start: seed = P_λ x without what the bound drops,
  // frontier = supp(seed) (⊥ entries make no offers, so they need not
  // enter the frontier).
  void full_start(unsigned lambda) {
    ++stats_.levels_full;
    if (obs::metrics_on()) obs_detail::oracle_obs().full.add(1);
    bound_level(lambda);
    std::vector<State> seed = std::move(cache_[lambda]);
    seed.resize(x_.size());
    buffers_.clear();
    parallel_for(x_.size(), [&](std::size_t vi) {
      const auto v = static_cast<Vertex>(vi);
      if (h_->levels().level(v) >= lambda) {
        seed[vi] = x_[vi];
        if constexpr (OutputBoundedAlgebra<Algebra>) {
          level_alg_.drop_bounded(seed[vi]);
        }
        if (!alg_->equal(seed[vi], bottom_)) buffers_.local().push_back(v);
      } else {
        seed[vi] = alg_->bottom();
      }
    });
    buffers_.drain_sorted(support_);
    engine_.reset_with_frontier(std::move(seed), support_);
    run_and_cache(lambda);
  }

  // ---------------------------------------------------------------------
  // One Gauss–Seidel sweep over the levels; returns whether it changed the
  // iterate.  Sweep directions alternate (ascending λ first): min-hop
  // shortest paths in H climb the level hierarchy monotonically and then
  // descend (Lemma 4.3), so an ascending sweep cascades the whole climb —
  // every level consumes the fresh output of the levels below it — and the
  // following descending sweep cascades the whole descent.  One up/down
  // pair propagates an entire H-path where the Jacobi operator needs
  // Θ(SPD(H)) iterations.
  bool sweep() {
    // Re-stamp what the previous sweep changed (every vertex after
    // restart()): a filtered state only moves up modulo ~ (Corollary
    // 2.17), so those are exactly the vertices its merges stamped.  A
    // d-truncated level re-consumes its own output through this.
    for (auto& stamp : stamp_) {
      if (stamp >= first_merge_) stamp = event_;
    }
    ++event_;
    first_merge_ = event_;

    const unsigned top = h_->max_level();
    // A pending edge touch (update(): a decrease already applied to the
    // graph) suppresses the skip fast paths for one full sweep: the
    // caches are still dominated seeds, but the endpoints' offers changed
    // without any state changing, which the stamps cannot see.  Every
    // level re-runs once with the endpoints in its frontier; after the
    // sweep the stamps carry all remaining propagation.
    const bool touched = !pending_touch_.empty();
    const bool ascending = (sweep_count_++ % 2 == 0);
    bool changed = false;
    for (unsigned idx = 0; idx <= top; ++idx) {
      const unsigned lambda = ascending ? idx : top - idx;
      engine_.set_weight_scale(h_->level_scale(lambda));
      const std::uint64_t since = last_scan_[lambda];

      if (cache_state_[lambda] == CacheState::kEmpty) {
        full_start(lambda);
      } else {
        // C_λ: inputs that changed since this level last consumed them.
        // Within a sweep the level's own merged output is invisible (see
        // merge_output): every other component of x at a V_λ vertex was
        // stamped when it arrived, so only external changes survive here.
        changed_level_.clear();
        for (const Vertex v : level_vertices_[lambda]) {
          if (stamp_[v] >= since) changed_level_.push_back(v);
        }
        if (changed_level_.empty() && !touched) {
          // Unchanged input — and x already absorbed this cache when it
          // was last merged, so even the output merge is a no-op.
          ++stats_.levels_skipped;
          if (obs::metrics_on()) obs_detail::oracle_obs().skipped.add(1);
          last_scan_[lambda] = event_;
          continue;
        }
        if (cache_state_[lambda] == CacheState::kTruncated) {
          // A truncation is not a closure — no exact warm restart exists;
          // redo the level from the projected input.
          full_start(lambda);
        } else {
          // Warm restart from the cached closure.  The frontier is not
          // C_λ but its *unabsorbed* subset: the cache is the closure of
          // the previous input, so inputs it dominates are entries the
          // level's own run already derived — merging them is a no-op and
          // an absorbed vertex makes no new offers.  Nor does one whose
          // new entries the bound drops.
          bound_level(lambda);
          std::vector<State> seed = std::move(cache_[lambda]);
          buffers_.clear();
          parallel_for(changed_level_.size(), [&](std::size_t i) {
            const Vertex v = changed_level_[i];
            if (absorb(level_alg_, seed[v], x_[v])) {
              buffers_.local().push_back(v);
            }
          });
          buffers_.drain_sorted(delta_);
          if (touched) {
            // The endpoints re-offer over the re-weighted edge even when
            // their own states are absorbed (their seeds are the cached
            // values — it is the incident weight that changed).
            scratch_union_.clear();
            std::set_union(delta_.begin(), delta_.end(),
                           pending_touch_.begin(), pending_touch_.end(),
                           std::back_inserter(scratch_union_));
            delta_.swap(scratch_union_);
          }
          if (delta_.empty()) {
            // x ⊆ cache modulo domination: the run would reproduce the
            // cache (r(cache ⊕ A^d δ) = cache for absorbed δ) — skip.
            ++stats_.levels_skipped;
            if (obs::metrics_on()) obs_detail::oracle_obs().skipped.add(1);
            cache_[lambda] = std::move(seed);
            last_scan_[lambda] = event_;
            continue;
          }
          ++stats_.levels_warm;
          if (obs::metrics_on()) obs_detail::oracle_obs().warm.add(1);
          engine_.reset_with_frontier(std::move(seed), delta_);
          run_and_cache(lambda);
        }
      }
      changed = merge_output(lambda) || changed;
      // Post-merge: the level's own output stamps (event_ − 1) stay below
      // the new scan mark, so it will not re-consume them this sweep.
      last_scan_[lambda] = event_;
    }
    // Every level consumed the touch exactly once this sweep.
    if (touched) pending_touch_.clear();
    return changed;
  }

  // x ⊕= P_λ cache_[λ] (Gauss–Seidel: the level's output feeds every
  // later level of this sweep); returns whether x changed.  Vertices whose
  // x improves are stamped so the other levels see them as changed inputs;
  // the caller advances its own scan mark past the stamp, so a level does
  // not re-consume its own output this sweep.
  bool merge_output(unsigned lambda) {
    const auto& z = cache_[lambda];
    const auto& verts = level_vertices_[lambda];
    buffers_.clear();
    parallel_for(verts.size(), [&](std::size_t i) {
      const Vertex v = verts[i];
      if (absorb(*alg_, x_[v], z[v])) buffers_.local().push_back(v);
    });
    buffers_.drain_sorted(merged_);
    for (const Vertex v : merged_) stamp_[v] = event_;
    ++event_;
    WorkDepth::add_depth_serial(1);
    return !merged_.empty();
  }

  // x = r(x ⊕ y) under `alg` (the level algebra drops what its bound
  // rejects); returns whether x changed.  A GatherAlgebra takes y as one
  // offer at shift 0, so an x that absorbs y is neither copied nor
  // rewritten; other algebras aggregate into a copy, filter and compare.
  // The result is copied into x, not moved: the per-thread `merged` keeps
  // its capacity, and x keeps a buffer of its own.
  static bool absorb(const Algebra& alg, State& x, const State& y) {
    thread_local State merged;
    if constexpr (GatherAlgebra<Algebra>) {
      const Offer<State> offer{&y, 0.0, 0};
      if (!alg.gather(merged, x, std::span(&offer, 1))) return false;
    } else {
      merged = x;
      alg.aggregate(merged, y);
      alg.filter(merged);
      if (alg.equal(merged, x)) return false;
    }
    x = merged;
    return true;
  }

  const SimulatedGraph* h_;
  const Algebra* alg_;  // unbounded: the merges into x
  Algebra level_alg_;   // the engine's, bounded per level run
  std::vector<Weight> bound_;  // the level bound level_alg_ reads
  MbfEngine<Algebra> engine_;
  State bottom_;
  std::vector<State> x0_;  // r^V x⁽⁰⁾, re-installed by restart()
  std::vector<State> x_;   // the H-iterate
  std::vector<std::vector<State>> cache_;  // per level, unprojected
  std::vector<CacheState> cache_state_;
  std::vector<std::vector<Vertex>> level_vertices_;  // V_λ, ascending
  std::vector<std::uint64_t> stamp_;      // per vertex: last x change
  std::vector<std::uint64_t> last_scan_;  // per level: last consumption
  std::uint64_t event_ = 1;
  std::uint64_t first_merge_ = 0;  // first merge event of the last sweep
  std::uint64_t sweep_count_ = 0;
  std::vector<Vertex> changed_level_;  // C_λ scratch
  std::vector<Vertex> delta_;          // unabsorbed subset of C_λ scratch
  std::vector<Vertex> support_;        // supp(P_λ x) scratch
  std::vector<Vertex> merged_;         // per-merge changed list scratch
  std::vector<Vertex> pending_touch_;  // update() endpoints, sorted unique
  std::vector<Vertex> scratch_union_;  // delta_ ∪ pending_touch_ scratch
  PerThreadBuffers<Vertex> buffers_;
  OracleStats stats_;
};

/// Run the MBF-like algorithm `alg` on H from r^V x⁽⁰⁾ until its filtered
/// fixpoint or `max_h_iterations` sweeps (0 = MbfOracle::run's automatic
/// cap).  `stats` receives the oracle's ledger.
template <OracleAlgebra Algebra>
[[nodiscard]] MbfRun<typename Algebra::State> oracle_run(
    const SimulatedGraph& h, const Algebra& alg,
    std::vector<typename Algebra::State> x0, unsigned max_h_iterations,
    OracleStats* stats = nullptr, MbfOptions opts = {}) {
  MbfOracle<Algebra> oracle(h, alg, std::move(x0), opts);
  MbfRun<typename Algebra::State> run;
  run.reached_fixpoint = oracle.run(max_h_iterations);
  run.iterations = oracle.stats().h_iterations;
  run.states = oracle.take_states();
  if (stats != nullptr) *stats = oracle.stats();
  return run;
}

}  // namespace pmte
