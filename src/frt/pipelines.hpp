#pragma once
// End-to-end FRT sampling pipelines (Section 7.4).
//
//   P-G  "direct"     — LE lists by iterating r^V A_G to the fixpoint:
//                        Θ(SPD(G)) iterations (Khan et al. [26], §8.1).
//   P-H  "oracle"     — the paper's algorithm (Theorem 7.9 / Cor. 7.10):
//                        hop set → simulated graph H → oracle; O(log² n)
//                        H-iterations w.h.p., subquadratic work.
//   P-M  "metric"     — explicit APSP, then one filtered pass per vertex:
//                        the Blelloch et al. [10] input model, Ω(n²) work.
//   P-S  "sequential" — pruned Dijkstras (Cohen [12]/Mendel–Schwob [33]):
//                        near-optimal sequential work, no parallel depth
//                        guarantee.
//
// All pipelines share step (1)–(2) randomness (β, vertex order) and
// construct the tree via FrtTree::build, so their outputs are directly
// comparable.

#include <cstdint>
#include <optional>

#include "src/frt/frt_tree.hpp"
#include "src/frt/le_lists.hpp"
#include "src/hopset/hopset.hpp"
#include "src/simgraph/simulated_graph.hpp"

namespace pmte {

struct FrtOptions {
  FrtWeightRule rule = FrtWeightRule::dominating;
  /// Penalty parameter ε̂ of the simulated graph (Section 4);
  /// 0 → auto 1/⌈log₂ n⌉², keeping the distortion (1+ε̂)^{Λ+1} = 1 + o(1)
  /// (Equation (4.16)).
  double eps_hat = 0.0;
  HubHopSetParams hopset;
  unsigned max_iterations = 0;  ///< 0 = automatic bound
  /// Engine/oracle tunables (P-H pipeline): mode and density threshold.
  MbfOptions mbf;
};

/// One sampled tree plus run metadata (depth/work proxies for E4).
struct FrtSample {
  FrtTree tree;
  double beta = 1.0;
  VertexOrder order;
  unsigned iterations = 0;       ///< top-level MBF-like iterations
  unsigned base_iterations = 0;  ///< G'-level iterations (oracle pipeline)
  std::uint64_t work = 0;        ///< semiring ops (WorkDepth delta)
  std::uint64_t relaxations = 0;    ///< edge relax applications (WorkDepth)
  std::uint64_t edges_touched = 0;  ///< half-edges scanned (WorkDepth)
  double seconds = 0.0;
  std::size_t hopset_edges = 0;
  std::size_t max_list_length = 0;  ///< for Lemma 7.6 checks
  /// Oracle level-reuse accounting (P-H pipeline; zero elsewhere).
  unsigned levels_skipped = 0;
  unsigned levels_warm = 0;
  unsigned levels_full = 0;
};

/// P-G: direct fixpoint iteration on G.
[[nodiscard]] FrtSample sample_frt_direct(const Graph& g, Rng& rng,
                                          const FrtOptions& opts = {});

/// P-H: the paper's oracle pipeline.  Builds the hop set and H internally.
[[nodiscard]] FrtSample sample_frt_oracle(const Graph& g, Rng& rng,
                                          const FrtOptions& opts = {});

/// P-H with a pre-built simulated graph (amortise the hop set across
/// samples; the level sampling stays fixed, fresh β/permutation per call).
[[nodiscard]] FrtSample sample_frt_oracle_on(const SimulatedGraph& h,
                                             Rng& rng,
                                             const FrtOptions& opts = {});

/// The simulated graph an ensemble's oracle trees share: hub hop set and
/// level sampling drawn from stream 0 of `master_seed` (streams 1..k seed
/// the per-tree β/permutation draws, see split_seed in src/util/rng.hpp),
/// with ε̂ resolved as in sample_frt_oracle.
[[nodiscard]] SimulatedGraph ensemble_simulated_graph(
    const Graph& g, std::uint64_t master_seed, const FrtOptions& opts);

/// P-M: from an explicit metric (row-major n×n).  `dist_min_hint` must
/// lower-bound the smallest positive entry.
[[nodiscard]] FrtSample sample_frt_metric(const std::vector<Weight>& metric,
                                          Vertex n, Weight dist_min_hint,
                                          Rng& rng,
                                          const FrtOptions& opts = {});

/// P-S: sequential pruned-Dijkstra pipeline on G.
[[nodiscard]] FrtSample sample_frt_sequential(const Graph& g, Rng& rng,
                                              const FrtOptions& opts = {});

/// Minimum-distance hint the graph pipelines (and DynamicFrt) pass to
/// FrtTree::build: the minimum edge weight, or 1 for an edgeless graph
/// (n ≤ 1), where any positive value works.
[[nodiscard]] Weight min_distance_hint(const Graph& g);

/// Resolve the automatic ε̂ = 1/⌈log₂ n⌉² (Equation (4.16): the distortion
/// (1+ε̂)^{O(log n)} stays 1 + o(1); the polylog exponent is a free choice).
[[nodiscard]] double resolve_eps_hat(double requested, Vertex n);

}  // namespace pmte
