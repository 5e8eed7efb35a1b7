#pragma once
// Deterministic query-path counters shared by the paper applications.
//
// The apps answer every tree question against the flat serving layer
// (serve::FrtIndex / serve::FrtEnsemble): node reads are flat array reads
// and an LCA is two code reads.  These counters are logical-
// operation counts (thread-count independent, machine independent),
// emitted by the app benches' --counters modes and gated in CI next to
// the engine counters (scripts/check_bench_regression.py).
//
//   tree_lookups — flat node reads against an FrtIndex, one per node a
//                  tree walk visits.
//   lca_probes   — codes read (2 per LCA).

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
