#pragma once
// Distance sketches from LE lists.
//
// LE lists are more than tree-embedding fodder: Cohen [12] and Cohen–
// Kaplan [14] (both cited by the paper as the origin of LE lists) use them
// as per-vertex *sketches* whose pairwise intersection estimates distances:
//
//     est(u, v) = min over ranks r in both lists of  L(u)[r] + L(v)[r],
//
// an upper bound on dist(u, v) by the triangle inequality, and never ∞ on
// connected graphs (the rank-0 vertex is in every list).  Averaging the
// minimum over several independent permutations tightens the estimate.
// Expected sketch size is T·O(log n) entries per vertex; queries take
// O(T·log n).
//
// This is a natural "extension" application of the paper's machinery: the
// sketches can be built with any of the LE-list pipelines, including the
// oracle pipeline at polylog depth.

#include <cstddef>
#include <vector>

#include "src/frt/le_lists.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pmte {

class DistanceSketches {
 public:
  /// Build sketches from `permutations` independent LE-list computations
  /// using the sequential pipeline.
  static DistanceSketches build(const Graph& g, std::size_t permutations,
                                Rng& rng);

  /// Build from pre-computed LE-list results (one per permutation); allows
  /// plugging the oracle pipeline.
  static DistanceSketches from_lists(std::vector<LeListsResult> runs,
                                     Vertex n);

  /// Upper-bound distance estimate; exact 0 for u == v.
  [[nodiscard]] Weight query(Vertex u, Vertex v) const;

  [[nodiscard]] std::size_t permutations() const noexcept {
    return runs_.size();
  }

  /// Average number of stored (rank, dist) entries per vertex.
  [[nodiscard]] double average_entries_per_vertex() const;

 private:
  std::vector<std::vector<DistanceMap>> runs_;  // per permutation, per vertex
  Vertex n_ = 0;
};

}  // namespace pmte
