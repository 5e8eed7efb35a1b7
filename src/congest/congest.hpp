#pragma once
// Congest-model distributed FRT algorithms (Section 8).
//
// We simulate the synchronous Congest model [38]: per round every vertex
// may send one O(log n)-bit message (one rank–distance pair) over each
// incident edge.  The simulator executes the algorithms at the level of
// their communication pattern and counts the rounds they would take:
//
//  * Khan et al. (§8.1): iterate the LE-list MBF algorithm on G directly.
//    An iteration in which the largest per-edge transfer is ℓ pairs costs
//    ℓ rounds (all edges pipeline in parallel), giving O(SPD(G)·log n)
//    rounds w.h.p.
//
//  * Skeleton algorithm (in the spirit of §8.2–8.3): sample a skeleton S
//    of ~√n vertices ordered first; build the skeleton graph from ℓ-hop
//    distances (ℓ ≈ √n); sparsify it with a Baswana–Sen spanner; broadcast
//    the spanner over a BFS tree (O(|E'_S| + D(G)) rounds, pipelined);
//    jump-start LE lists from the locally-computed skeleton lists and
//    finish with ℓ MBF iterations on G with weights stretched by the
//    spanner stretch (Equation (8.9)).  Round complexity Õ(√n + D(G)).
//
// The simulation preserves the exact message counts of the abstract
// algorithms; hardware effects are out of scope.

#include <cstdint>

#include "src/frt/le_lists.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

struct CongestRun {
  LeListsResult le;             ///< LE lists of the embedding used
  double embedding_stretch = 1; ///< stretch of that embedding w.r.t. G
  std::uint64_t rounds = 0;     ///< total simulated Congest rounds
  std::uint64_t rounds_setup = 0;      ///< BFS / sampling / broadcast part
  std::uint64_t rounds_iterations = 0; ///< MBF iteration part
  std::size_t skeleton_size = 0;
  std::size_t skeleton_spanner_edges = 0;
};

/// Khan et al. [26]: LE lists of G itself, O(SPD(G)·log n) rounds w.h.p.
[[nodiscard]] CongestRun congest_frt_khan(const Graph& g,
                                          const VertexOrder& order);

struct SkeletonOptions {
  /// ℓ — skeleton sampling/propagation radius; 0 → ⌈√n⌉.
  unsigned ell = 0;
  /// c — skeleton size multiplier (|S| = min(n, ⌈c·ℓ·log₂ n⌉)… capped).
  double size_constant = 1.0;
  /// Spanner parameter for sparsifying the skeleton graph.
  unsigned spanner_k = 2;
};

/// Skeleton-based algorithm: LE lists of the virtual graph H (G stretched
/// by 2k−1 plus the skeleton spanner), Õ(√n + D(G)) rounds.
/// The vertex order is adjusted so skeleton vertices come first (the
/// requirement before Equation (8.9)); the returned lists use that order.
struct SkeletonRun {
  CongestRun run;
  VertexOrder order;  ///< order actually used (skeleton ranks first)
  Graph virtual_graph;  ///< the explicit H (for validation)
};
[[nodiscard]] SkeletonRun congest_frt_skeleton(const Graph& g,
                                               const SkeletonOptions& opts,
                                               Rng& rng);

}  // namespace pmte
