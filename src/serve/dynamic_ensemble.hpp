#pragma once
// Incrementally maintained FRT ensemble (docs/DYNAMIC.md).
//
// FrtEnsemble is immutable by design — the serving layer shares it across
// tenants and epochs.  DynamicEnsemble is the mutable build-side
// counterpart for live edge-weight updates: it owns a mutable copy of the
// graph, the shared simulated graph H (stream 0 of the master seed,
// exactly as FrtEnsemble::build constructs it), one retained DynamicFrt
// maintainer per tree (streams 1..k), and the current flat indices.
//
//   update(u, v, w)  — applies the re-weighting to the graph and to H's
//                      base *once* (all maintainers observe one shared H;
//                      the engines read weights live), lets every
//                      maintainer converge to the new fixpoint (decrease:
//                      warm continuation; increase: invalidate + re-run),
//                      and rebuilds only the indices whose trees changed.
//   snapshot()       — wraps copies of the current indices into an
//                      immutable FrtEnsemble, fingerprinted over the
//                      *mutated* graph: with zero updates it compares ==
//                      to FrtEnsemble::build(g, seed, opts), and after
//                      updates it carries a new registry fingerprint, so
//                      Server::load + stage_swap republish it to tenants
//                      at the next batch boundary without colliding with
//                      the pre-update epoch.
//
// Update semantics: the re-weighting applies to G' — the hop-set-augmented
// graph the oracle iterates on.  Shortcut edges the hop set derived from
// the old weight of {u,v} are *not* re-derived (a full static rebuild
// would sample a different hop set); the maintained metric is exactly
// "the built H with this base edge re-weighted", and the
// rebuild-differential harness pins it against a fresh oracle run on that
// same H.  Only weight *changes* of existing edges are supported —
// insertions/deletions change the CSR shape and the hop set.
//
// Not copyable/movable: the maintainers point at the member H.
// Single-writer, like Server: one update()/snapshot() at a time.

#include <cstdint>
#include <istream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/frt/dynamic_frt.hpp"
#include "src/serve/frt_ensemble.hpp"

namespace pmte::serve {

class DynamicEnsemble {
 public:
  /// Build the maintained state over `g` — same randomness layout as
  /// FrtEnsemble::build (oracle pipeline required: the incremental path
  /// *is* the retained oracle).
  DynamicEnsemble(const Graph& g, std::uint64_t master_seed,
                  const EnsembleOptions& opts = {});

  DynamicEnsemble(const DynamicEnsemble&) = delete;
  DynamicEnsemble& operator=(const DynamicEnsemble&) = delete;

  /// Deterministic per-update accounting (logical counts — identical at
  /// any thread count; relaxations is the bench_dynamic gate metric).
  struct UpdateStats {
    /// Warm (no-invalidation) path taken: the *G'* weight did not grow.
    /// Judged against G', not the input graph — a cheaper hop-set
    /// shortcut merged into {u,v} can make a graph-level decrease a
    /// G'-level increase, which must invalidate.
    bool incremental = false;
    std::size_t trees_rebuilt = 0;  ///< indices rebuilt (tree changed)
    std::uint64_t levels_recomputed = 0;  ///< warm + full level runs
    std::uint64_t levels_skipped = 0;     ///< absorbed-input skips
    std::uint64_t relaxations = 0;        ///< engine relaxations this update
  };

  /// Re-weight the existing edge {u,v} to `new_weight` and converge every
  /// maintainer.  The change is visible to snapshot() immediately and to
  /// tenants once the snapshot is republished through the Server.
  UpdateStats update(Vertex u, Vertex v, Weight new_weight);

  /// Immutable serving snapshot of the current state (see class comment).
  [[nodiscard]] FrtEnsemble snapshot() const;

  [[nodiscard]] const Graph& graph() const noexcept { return g_; }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return master_seed_;
  }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return maintainers_.size();
  }
  [[nodiscard]] std::uint64_t updates_applied() const noexcept {
    return updates_;
  }
  [[nodiscard]] const DynamicFrt& maintainer(std::size_t t) const {
    return *maintainers_[t];
  }

 private:
  /// ensemble_simulated_graph, as FrtEnsemble::build, after checking the
  /// options this class supports.
  [[nodiscard]] static SimulatedGraph make_h(const Graph& g,
                                             std::uint64_t master_seed,
                                             const EnsembleOptions& opts);

  Graph g_;  ///< mutable copy; fingerprints and hints read the live state
  std::uint64_t master_seed_;
  EnsembleOptions opts_;
  SimulatedGraph h_;  ///< shared by every maintainer's engine
  std::vector<std::unique_ptr<DynamicFrt>> maintainers_;  // per tree
  std::vector<FrtIndex> indices_;  ///< current flat indices, kept in sync
  std::uint64_t updates_ = 0;
};

/// One live edge update: before batch `batch` is served, edge `edge` of
/// the graph's canonical edge list (Graph::edge_list) re-weights to
/// old · `factor`.
struct UpdateEvent {
  std::size_t batch = 0;
  std::size_t edge = 0;
  double factor = 1.0;
  std::size_t line = 0;  ///< its line in the update file
};

/// Read an update file: each line, less any '#' comment, is blank or
/// exactly "<batch> <edge-index> <factor>", every token parsed in full,
/// with batch < `batches`, edge-index < edges.size(), factor finite > 0,
/// and old · factor finite > 0 when the events are applied to `edges`
/// (the graph's edge list) in the order returned: by batch, then in file
/// order.  Throws CheckError naming every bad line, one "<name>:<line>:
/// bad update line ..." per line of its message, in line order.
[[nodiscard]] std::vector<UpdateEvent> read_update_file(
    std::istream& in, const std::string& name,
    std::span<const WeightedEdge> edges, std::size_t batches);

}  // namespace pmte::serve
