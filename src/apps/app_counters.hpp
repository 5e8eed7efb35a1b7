#pragma once
// Deterministic query-path counters shared by the paper applications.
//
// k-median and buy-at-bulk walk the FrtTree they sampled (its parent
// links, levels and leaves).  These counters are logical-operation counts
// (thread-count independent, machine independent), emitted by the app
// benches' --counters modes and gated in CI next to the engine counters
// (scripts/check_bench_regression.py).
//
//   tree_lookups — node reads, one per tree node a walk visits.
//   lca_probes   — leaves an LCA climb starts from (2 per LCA).

#include <cstdint>

namespace pmte {

struct AppQueryCounters {
  std::uint64_t tree_lookups = 0;
  std::uint64_t lca_probes = 0;

  AppQueryCounters& operator+=(const AppQueryCounters& o) noexcept {
    tree_lookups += o.tree_lookups;
    lca_probes += o.lca_probes;
    return *this;
  }
};

}  // namespace pmte
