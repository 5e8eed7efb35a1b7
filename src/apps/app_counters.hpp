#pragma once
// Deterministic query-path counters shared by the paper applications.
//
// The apps historically answered every tree question by climbing
// FrtTree::Node records — heap-allocated children vectors, parent chains,
// one cache miss per hop.  After the rebase onto the flat serving layer
// (serve::FrtIndex / serve::FrtEnsemble) the same questions are flat array
// reads, and an LCA is two ancestor-row reads.  These counters make the
// switch auditable: they are logical-operation counts (thread-count
// independent, machine independent), emitted by the app benches'
// --counters modes and gated in CI next to the engine counters
// (scripts/check_bench_regression.py).
//
//   tree_node_visits — FrtTree::Node dereferences (pointer chases).  The
//                      flat paths keep this at exactly 0; the legacy paths
//                      report the cost the rebase removed.
//   tree_lookups     — flat node/array reads against an FrtIndex (cheap,
//                      contiguous; counted for transparency) and, for
//                      ensemble-served batches, per-tree index lookups.
//   lca_probes       — ancestor rows read (2 per LCA).

#include <cstdint>

namespace pmte {

struct AppQueryCounters {
  std::uint64_t tree_node_visits = 0;
  std::uint64_t tree_lookups = 0;
  std::uint64_t lca_probes = 0;

  AppQueryCounters& operator+=(const AppQueryCounters& o) noexcept {
    tree_node_visits += o.tree_node_visits;
    tree_lookups += o.tree_lookups;
    lca_probes += o.lca_probes;
    return *this;
  }
};

}  // namespace pmte
