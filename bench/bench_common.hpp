#pragma once
// Shared helpers for the experiment benches (E1–E14): consistent headers,
// graph-family construction, and run-scaling via --scale=small|full.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/util/cli.hpp"
#include "src/util/stats.hpp"
#include "tests/support/reference/table.hpp"
#include "src/util/timer.hpp"

namespace pmte::bench {

// ---------------------------------------------------------------------------
// Deterministic counter scenarios (the CI bench gate).
//
// Benches that model a paper claim with the WorkDepth counters expose a
// `--counters` mode: fixed-seed scenarios whose relaxation / edges-touched /
// work / depth counts are logical-operation counts — identical across
// thread counts, compilers, and machines.  scripts/run_benches.sh embeds
// the JSON under the .counters key of BENCH_<name>.json, and the CI
// bench-gate job hard-fails on >5% growth over the committed baseline via
// scripts/check_bench_regression.py.

/// One gated scenario: a name plus ordered (metric, value) pairs.
struct CounterScenario {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> metrics;
};

/// True iff the binary was invoked with --counters (scale flags ignored).
inline bool wants_counters(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--counters") == 0) return true;
  }
  return false;
}

/// Fold a double's IEEE-754 bit pattern into an FNV-1a hash (result
/// pinning for the counter scenarios).
inline std::uint64_t fnv1a_fold_f64(std::uint64_t hash, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a_fold(hash, bits);
}

/// Fold a 64-bit hash to the 32 bits the counter JSON carries.
inline std::uint64_t fold32(std::uint64_t hash) {
  return (hash >> 32) ^ (hash & 0xffffffffULL);
}

/// FNV-1a over a result vector's bit patterns, folded to 32 bits so the
/// value survives double-precision JSON rewriting.
inline std::uint64_t result_hash32(const std::vector<double>& out) {
  std::uint64_t hash = kFnv1aInit;
  for (const double d : out) hash = fnv1a_fold_f64(hash, d);
  return fold32(hash);
}

/// Emit the scenarios in the schema check_bench_regression.py consumes.
inline void emit_counters(std::ostream& os,
                          const std::vector<CounterScenario>& scenarios) {
  os << "{\n  \"schema\": 1,\n  \"scenarios\": {\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    os << "    \"" << s.name << "\": {";
    for (std::size_t j = 0; j < s.metrics.size(); ++j) {
      os << "\"" << s.metrics[j].first << "\": " << s.metrics[j].second
         << (j + 1 < s.metrics.size() ? ", " : "");
    }
    os << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n## " << experiment << "\n\n"
            << "Paper claim: " << claim << "\n\n";
}

/// Whether the bench runs the reduced sweep (default: full).
inline bool quick(const Cli& cli) { return cli.get("scale", "full") == "small"; }

/// A named graph instance for family sweeps.
struct Instance {
  std::string name;
  Graph graph;
};

inline Instance make_instance(const std::string& family, Vertex n,
                              std::uint64_t seed) {
  Rng rng(seed);
  if (family == "path") return {family, make_path(n, {1.0, 2.0}, rng)};
  if (family == "cycle") return {family, make_cycle(n, {1.0, 2.0}, rng)};
  if (family == "grid") {
    Vertex side = 1;
    while (side * side < n) ++side;
    return {family, make_grid(side, side, {1.0, 2.0}, rng)};
  }
  if (family == "gnm") return {family, make_gnm(n, 3 * n, {1.0, 4.0}, rng)};
  if (family == "geometric") {
    const double radius = 2.2 / std::sqrt(static_cast<double>(n));
    return {family, make_geometric(n, radius, rng)};
  }
  if (family == "caterpillar") {
    return {family, make_caterpillar(n / 4, 3, 4.0, 1.0)};
  }
  if (family == "cliquechain") {
    return {family, make_clique_chain(n / 8, 8, {1.0, 2.0}, rng)};
  }
  throw std::invalid_argument("unknown graph family: " + family);
}

}  // namespace pmte::bench
