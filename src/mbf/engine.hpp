#pragma once
// The generic MBF-like iteration engine (Definition 2.11).
//
// An MBF-like algorithm is (semimodule M over semiring S, representative
// projection r, initial vector x⁽⁰⁾); h iterations compute
//     A^h(G) = r^V A^h x⁽⁰⁾  =  (r^V A)^h x⁽⁰⁾        (Corollary 2.17),
// i.e. per iteration every vertex *propagates* its state along incident
// edges, *aggregates* incoming states, and *filters* the result.
//
// The engine is templated over an Algebra policy:
//
//   struct Algebra {
//     using State = …;                       // an element of M
//     State bottom() const;                  // ⊥
//     // acc ⊕= a_{to,from} ⊙ x_from   for the edge {from,to} of weight w
//     void relax(State& acc, Weight w, Vertex from, Vertex to,
//                const State& x_from) const;
//     void filter(State& x) const;           // representative projection r
//     bool equal(const State&, const State&) const;  // for fixpoint tests
//     // optional, see GatherAlgebra: out = r(x ⊕ ⊕ offers), changed?
//     bool gather(State& out, const State& x,
//                 std::span<const Offer<State>> offers) const;
//   };
//
// == Frontier-driven iteration ==
//
// Because the adjacency diagonal is the semiring one (1 ⊙ x = x by (2.1)),
// x⁽ⁱ⁺¹⁾_v is a function of x⁽ⁱ⁾_v and the states of v's neighbours.  So v
// can only change in iteration i+1 if v itself or a neighbour changed in
// iteration i — the changed set (the *frontier*) shrinks as the iteration
// converges, and once it is empty the filtered fixpoint is reached.
// MbfEngine exploits this: each step recomputes only the vertices affected
// by the previous frontier and relaxes only edges whose source is in the
// frontier, falling back to the dense all-edges pull when the frontier is
// too large for sparsity to pay off (direction-optimizing style).
//
// Restricting relaxation to frontier sources is exact — not merely
// ~-equivalent — because every semimodule aggregation ⊕ of the framework
// is associative, commutative and idempotent, and every filter r is an
// idempotent selection: an offer w ⊙ x_u already made in an earlier
// iteration is either contained in x_v (idempotence) or was discarded by r
// in favour of entries that are still present (selection stability), so
// repeating it cannot change r(x_v ⊕ …).  All Section-3 algebras and the
// LE-list algebra (Section 7) satisfy this; an algebra that does not can
// force MbfMode::kDense.
//
// The same argument holds per entry.  A frontier vertex u went from
// out_[u] (its state before its last change, which commit() swapped out)
// to cur_[u], and every neighbour v has already absorbed w ⊙ out_[u]: u
// offered that state when it last changed, or, never having changed since
// reset_with_frontier, u is covered by that call's contract.  Let δ be
// the entries of cur_[u] that are not entries of out_[u].  Then
// cur ⊕ out = δ ⊕ out, and with a congruent filter
//     r(x_v ⊕ w⊙cur) = r(x_v ⊕ w⊙out ⊕ w⊙δ) = r(x_v ⊕ w⊙δ),
// so u offers only δ.  Algebras opt in through offer_delta
// (DeltaOfferAlgebra); of the library's algebras only LeListAlgebra does.
// States, frontiers and relaxation counts stay those of full offers.  The
// merge work falls, but computing δ costs |cur_[u]| + |out_[u]| per
// frontier vertex and round: on degree-2 paths that outweighs the saving
// and the net `work` counter rises by about 2% (wall time on such inputs
// is unmeasured).  The first round after a reset keeps full offers,
// because out_ is stale then.
//
// Each affected vertex v is recomputed by one call to the algebra with
// all of its offers (mbf_gather): its frontier neighbours' states (or
// deltas) with their scaled edge weights, collected into a per-thread
// list without a branch per edge — every neighbour writes its slot and
// only a frontier sender advances the count.  An algebra without a
// gather member gets the default: relax each offer into a copy of x_v in
// neighbour order, filter, compare.  LeListAlgebra gathers itself: in
// twelve 1024-vertex oracle builds 92% of offers are absorbed whole by the
// receiver's state at the start of the round, so it tests every offered
// entry against that unchanged staircase and merges only the entries
// that beat it (DistanceMap::gather_least_elements).  The direct
// pipeline's dense rounds send fewer, fuller offers (about six per
// receiver on 4096-vertex gnm graphs, 65% absorbed), and there the gather
// still beats one ⊕ per offer.  A receiver whose gather reports no change
// leaves out_[v] unwritten: only changed vertices are committed, and only
// the frontier's out_ entries are read.
//
// The affected set frontier ∪ N(frontier) is claimed by per-vertex marks:
// the first visit to a vertex claims its mark with an atomic exchange and
// pushes the vertex, so each affected vertex is pushed once and only the
// duplicate-free set is sorted.  Which thread claims a vertex depends on
// the schedule; the sorted set, and so the gather order, does not.  The
// pass after the gather clears the marks.
//
// The two state vectors are double-buffered inside the engine and per-
// vertex results are committed by swapping vector elements, so steady-
// state iterations perform no allocations (state-internal buffers are
// recycled across rounds).  Frontiers are collected into per-thread
// buffers (PerThreadBuffers) and merged by sorting, which makes every
// output — states, frontiers, iteration counts, WorkDepth counters —
// bit-identical across OpenMP thread counts.

#include <atomic>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

template <typename A>
concept MbfAlgebra = requires(const A& alg, typename A::State& acc,
                              const typename A::State& x, Weight w, Vertex u,
                              Vertex v) {
  { alg.bottom() } -> std::same_as<typename A::State>;
  { alg.relax(acc, w, u, v, x) };
  { alg.filter(acc) };
  { alg.equal(x, x) } -> std::convertible_to<bool>;
};

/// An algebra whose frontier vertices offer only their new entries:
/// offer_delta(out, now, before) sets `out` to the entries of `now` that
/// are not entries of `before` (see "Frontier-driven iteration").
template <typename A>
concept DeltaOfferAlgebra =
    MbfAlgebra<A> && requires(const A& alg, typename A::State& out,
                              const typename A::State& x) {
      { alg.offer_delta(out, x, x) };
    };

/// An algebra that recomputes a receiver from all of its offers at once:
/// gather(out, x, offers) sets `out` to r(x ⊕ ⊕_i shift_i ⊙ *state_i) and
/// returns whether that differs from x; on false `out` may be left
/// unwritten.  `out` and x are distinct states.
template <typename A>
concept GatherAlgebra =
    MbfAlgebra<A> &&
    requires(const A& alg, typename A::State& out, const typename A::State& x,
             std::span<const Offer<typename A::State>> offers) {
      { alg.gather(out, x, offers) } -> std::same_as<bool>;
    };

/// Recompute receiver `to` from its state x and its offers into `out`;
/// returns whether it changed.  The default relaxes the offers in order
/// into a copy of x, filters and compares.
template <MbfAlgebra Algebra>
bool mbf_gather(const Algebra& alg, typename Algebra::State& out,
                const typename Algebra::State& x, Vertex to,
                std::span<const Offer<typename Algebra::State>> offers) {
  if constexpr (GatherAlgebra<Algebra>) {
    return alg.gather(out, x, offers);
  } else {
    out = x;  // diagonal: 1 ⊙ x_v = x_v   (2.1)
    for (const auto& o : offers) alg.relax(out, o.shift, o.from, to, *o.state);
    alg.filter(out);
    return !alg.equal(out, x);
  }
}

/// Apply the filter r^V to every component in parallel.
template <MbfAlgebra Algebra>
void mbf_filter(const Algebra& alg,
                std::vector<typename Algebra::State>& x) {
  parallel_for(x.size(), [&](std::size_t v) { alg.filter(x[v]); });
  WorkDepth::add_depth_serial(1);
}

/// Iteration mode of MbfEngine.
enum class MbfMode : std::uint8_t {
  kAuto,    ///< frontier-driven, dense fallback above the density threshold
  kDense,   ///< always the dense all-edges pull (the reference behaviour)
  /// Sparse frontier gathers regardless of density — what MbfOracle runs
  /// (mbf_oracle.hpp).  The first round after reset() still executes as
  /// the dense pull: with every vertex in the frontier the two are the
  /// same edge set, and the dense pull skips the pointless membership
  /// tests.
  kSparse,
};

/// Tunables of MbfEngine.
struct MbfOptions {
  double weight_scale = 1.0;  ///< edge-weight prescale (Lemma 5.1)
  MbfMode mode = MbfMode::kAuto;
  /// Apply r^V to x⁽⁰⁾ on construction/reset (harmless by Corollary 2.17;
  /// disable when x⁽⁰⁾ is known to be filtered already).
  bool filter_initial = true;
};

/// Result of running an MBF-like algorithm to fixpoint / iteration budget.
template <typename State>
struct MbfRun {
  std::vector<State> states;
  unsigned iterations = 0;    ///< iterations actually executed
  bool reached_fixpoint = false;
};

/// Frontier-driven MBF-like iterator: owns the double-buffered state
/// vectors and the frontier, and advances one filtered iteration per
/// step().  States are readable between steps (states()), so callers that
/// need per-iteration accounting (CONGEST round costs, oracle levels) can
/// interleave without copying.
template <MbfAlgebra Algebra>
class MbfEngine {
 public:
  using State = typename Algebra::State;

  /// Engine with an empty (all-⊥-like, default-constructed) state vector;
  /// call reset() before stepping.  The graph and algebra must outlive the
  /// engine.
  MbfEngine(const Graph& g, const Algebra& alg, MbfOptions opts = {})
      : g_(&g), alg_(&alg), opts_(opts) {
    const Vertex n = g.num_vertices();
    cur_.resize(n);
    out_.resize(n);
    if constexpr (DeltaOfferAlgebra<Algebra>) offer_.resize(n);
    in_frontier_.assign(n, 0);
    affected_mark_.assign(n, 0);
    changed_.assign(n, 0);
    frontier_all_ = false;  // nothing to do until reset()
  }

  MbfEngine(const Graph& g, const Algebra& alg, std::vector<State> x0,
            MbfOptions opts = {})
      : MbfEngine(g, alg, opts) {
    reset(std::move(x0));
  }

  /// Install a fresh x⁽⁰⁾ (must have one state per vertex) and restart the
  /// iteration with a full frontier.  Buffers are reused, so resetting an
  /// engine is cheaper than constructing one.
  void reset(std::vector<State> x0) {
    PMTE_CHECK(x0.size() == g_->num_vertices(),
               "MbfEngine: state vector size mismatch");
    cur_ = std::move(x0);
    if (opts_.filter_initial) mbf_filter(*alg_, cur_);
    frontier_.clear();
    frontier_all_ = true;
    iterations_ = 0;
  }

  /// Install x⁽⁰⁾ together with an explicit initial frontier (sorted
  /// ascending, duplicate-free) instead of the implicit all-vertices one.
  /// No initial filter is applied.  Exactness is the *caller's* contract:
  /// every state must already be filtered, and every vertex outside
  /// `frontier` must be unable to change or make a changing offer in the
  /// first step — either its state is ⊥ (⊥ offers aggregate to nothing),
  /// or the states are a fixpoint of this engine under the same weight
  /// scale and only `frontier` vertices were modified since.  "Modified"
  /// covers edge weights as well as states: every round reads e.weight
  /// live from the graph, so an in-place weight *decrease* is absorbed by
  /// putting the edge's endpoints into the frontier with their states
  /// unchanged — their offers changed, not their inputs (the dynamic
  /// update path of MbfOracle::update relies on this, docs/DYNAMIC.md).
  /// The oracle (mbf_oracle.hpp) uses all three shapes: support-seeded
  /// level starts, warm restarts from cached per-level fixpoints, and
  /// post-update endpoint-seeded restarts.
  void reset_with_frontier(std::vector<State> x0,
                           std::vector<Vertex> frontier) {
    PMTE_CHECK(x0.size() == g_->num_vertices(),
               "MbfEngine: state vector size mismatch");
    cur_ = std::move(x0);
    frontier_ = std::move(frontier);
    frontier_all_ = false;
    iterations_ = 0;
  }

  /// Change the weight prescale for subsequent steps (the oracle reuses
  /// one engine across the per-level matrices A_λ).
  void set_weight_scale(double s) noexcept { opts_.weight_scale = s; }

  /// kAuto switches to the dense pull when scanning the frontier's incident
  /// edges would touch more than this fraction of all half-edges: sparse
  /// rounds cost Σ_{v affected} deg(v) edge scans, so once the frontier
  /// covers a constant fraction of the graph the dense pull is cheaper and
  /// has no membership tests.
  static constexpr double kDenseFraction = 0.25;

  /// One filtered iteration x ↦ r^V(A x).  Returns true iff any state
  /// changed; false means the filtered fixpoint was already reached.
  bool step() {
    if (at_fixpoint()) return false;
    const Vertex n = g_->num_vertices();
    const auto half_edges = static_cast<std::uint64_t>(2 * g_->num_edges());

    bool dense = frontier_all_ || opts_.mode == MbfMode::kDense;
    if (!dense && opts_.mode == MbfMode::kAuto) {
      // Degrees are integers < 2^53: the double sum is exact, hence the
      // threshold decision is deterministic across thread counts.
      const double frontier_deg = parallel_reduce_sum(
          frontier_.size(),
          [&](std::size_t i) {
            return static_cast<double>(g_->degree(frontier_[i]));
          });
      dense = frontier_deg + static_cast<double>(frontier_.size()) >
              kDenseFraction * static_cast<double>(half_edges + n);
    }

    if (dense) {
      dense_round();
    } else {
      sparse_round();
    }
    WorkDepth::add_depth_serial(1);
    ++iterations_;
    frontier_all_ = false;
    frontier_.swap(next_frontier_);
    return !frontier_.empty();
  }

  /// True once step() can no longer change any state.
  [[nodiscard]] bool at_fixpoint() const noexcept {
    return !frontier_all_ && frontier_.empty();
  }

  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return cur_;
  }

  /// Move the states out (the engine needs reset() afterwards).
  [[nodiscard]] std::vector<State> take_states() noexcept {
    frontier_.clear();
    frontier_all_ = false;
    return std::move(cur_);
  }

  /// Vertices whose state changed in the last step (sorted ascending).
  /// Before the first step every vertex is implicitly in the frontier.
  [[nodiscard]] const std::vector<Vertex>& frontier() const noexcept {
    return frontier_;
  }

  [[nodiscard]] unsigned iterations() const noexcept { return iterations_; }

 private:
  // Full pull: recompute every vertex from all incident edges, folding the
  // fixpoint equality test into the same parallel loop (no serial scan).
  void dense_round() {
    const Vertex n = g_->num_vertices();
    parallel_for_balanced(
        n, [&](std::size_t vi) { return g_->degree(static_cast<Vertex>(vi)); },
        [&](std::size_t vi) {
          (void)recompute(static_cast<Vertex>(vi), cur_,
                          [](Vertex) -> std::size_t { return 1; });
        });
    const auto half_edges = static_cast<std::uint64_t>(2 * g_->num_edges());
    WorkDepth::add_relaxations(half_edges);
    WorkDepth::add_edges_touched(half_edges);

    buffers_.clear();
    parallel_for(n, [&](std::size_t vi) {
      if (changed_[vi]) buffers_.local().push_back(static_cast<Vertex>(vi));
    });
    buffers_.drain_sorted(next_frontier_);
    commit();
  }

  // Sparse gather: only vertices adjacent to (or in) the frontier can
  // change, and only offers from frontier sources can change them.
  void sparse_round() {
    // From the second round after a reset on, frontier vertices offer only
    // their new entries; offer_ is filled below, before the gather
    // overwrites out_.
    bool delta = false;
    if constexpr (DeltaOfferAlgebra<Algebra>) delta = iterations_ > 0;
    const std::vector<State>& senders = delta ? offer_ : cur_;

    // affected = frontier ∪ N(frontier), each vertex pushed once by the
    // visit that claims its mark, then sorted so the gather order (and
    // hence the counters) is canonical.
    buffers_.clear();
    parallel_for(frontier_.size(), [&](std::size_t i) {
      const Vertex u = frontier_[i];
      in_frontier_[u] = 1;
      if constexpr (DeltaOfferAlgebra<Algebra>) {
        if (delta) alg_->offer_delta(offer_[u], cur_[u], out_[u]);
      }
      auto& buf = buffers_.local();
      const auto claim = [&](Vertex v) {
        std::atomic_ref<std::uint8_t> mark(affected_mark_[v]);
        if (mark.load(std::memory_order_relaxed) == 0 &&
            mark.exchange(1, std::memory_order_relaxed) == 0) {
          buf.push_back(v);
        }
      };
      claim(u);
      for (const auto& e : g_->neighbors(u)) claim(e.to);
    });
    buffers_.drain_sorted(affected_);

    parallel_for_balanced(
        affected_.size(), [&](std::size_t i) { return g_->degree(affected_[i]); },
        [&](std::size_t i) {
          const Vertex v = affected_[i];
          const std::size_t relaxed = recompute(
              v, senders,
              [&](Vertex u) -> std::size_t { return in_frontier_[u]; });
          WorkDepth::add_relaxations(relaxed);
          WorkDepth::add_edges_touched(
              static_cast<std::uint64_t>(g_->degree(v)));
        });

    // The frontier is part of the affected set, so one pass resets both
    // flag arrays for the next round.
    buffers_.clear();
    parallel_for(affected_.size(), [&](std::size_t i) {
      const Vertex v = affected_[i];
      in_frontier_[v] = 0;
      affected_mark_[v] = 0;
      if (changed_[v]) buffers_.local().push_back(v);
    });
    buffers_.drain_sorted(next_frontier_);
    commit();
  }

  // Recompute v from the neighbours u with take(u) = 1, whose states are
  // read from `senders`, into out_[v] and set changed_[v]; returns the
  // number of offers.  Every neighbour writes its slot of the calling
  // thread's offer list and take(u) advances the count, so collecting the
  // list costs no branch per edge.
  template <class Take>
  std::size_t recompute(Vertex v, const std::vector<State>& senders,
                        Take take) {
    thread_local std::vector<Offer<State>> slots;
    const auto nbrs = g_->neighbors(v);
    if (slots.size() < nbrs.size()) slots.resize(nbrs.size());
    const double scale = opts_.weight_scale;
    std::size_t count = 0;
    for (const auto& e : nbrs) {
      slots[count] = Offer<State>{&senders[e.to], e.weight * scale, e.to};
      count += take(e.to);
    }
    changed_[v] = mbf_gather(*alg_, out_[v], cur_[v], v,
                             std::span<const Offer<State>>(slots.data(), count))
                      ? 1
                      : 0;
    return count;
  }

  // Publish the recomputed states of changed vertices by swapping the
  // per-vertex buffers: cur_[v] receives the new state, out_[v] keeps the
  // old one whose capacity the next round recycles.
  void commit() {
    parallel_for(next_frontier_.size(), [&](std::size_t i) {
      const Vertex v = next_frontier_[i];
      std::swap(cur_[v], out_[v]);
    });
  }

  const Graph* g_;
  const Algebra* alg_;
  MbfOptions opts_;
  std::vector<State> cur_;   // x⁽ⁱ⁾
  std::vector<State> out_;   // recompute buffer / previous states
  std::vector<Vertex> frontier_;       // changed in the last step (sorted)
  std::vector<Vertex> next_frontier_;  // being built by the current step
  // Per frontier vertex u, the entries of cur_[u] that are not entries of
  // out_[u]: what u offers in a delta round (DeltaOfferAlgebra only;
  // empty otherwise).
  std::vector<State> offer_;
  std::vector<Vertex> affected_;       // frontier ∪ N(frontier)
  std::vector<std::uint8_t> in_frontier_;
  // 1 while a vertex is in affected_: claimed atomically by the first
  // visit of the round, cleared after the gather.
  std::vector<std::uint8_t> affected_mark_;
  std::vector<std::uint8_t> changed_;
  PerThreadBuffers<Vertex> buffers_;
  bool frontier_all_ = false;  // before the first step after reset()
  unsigned iterations_ = 0;
};

/// Run up to `max_iterations` MBF-like iterations, stopping early at the
/// filtered fixpoint x⁽ⁱ⁺¹⁾ = x⁽ⁱ⁾ (reached after ≤ SPD(G) iterations,
/// Definition 2.11).  Frontier-driven: per iteration only edges incident
/// to the changed set are relaxed (dense fallback per `mode`).
template <MbfAlgebra Algebra>
[[nodiscard]] MbfRun<typename Algebra::State> mbf_run(
    const Graph& g, const Algebra& alg,
    std::vector<typename Algebra::State> x0, unsigned max_iterations,
    double weight_scale = 1.0, MbfMode mode = MbfMode::kAuto) {
  MbfEngine<Algebra> engine(
      g, alg, std::move(x0),
      MbfOptions{.weight_scale = weight_scale, .mode = mode});
  MbfRun<typename Algebra::State> run;
  for (unsigned i = 0; i < max_iterations; ++i) {
    const bool changed = engine.step();
    ++run.iterations;
    if (!changed) {
      run.reached_fixpoint = true;
      break;
    }
  }
  run.states = engine.take_states();
  return run;
}

}  // namespace pmte
