#include "src/apps/distance_sketches.hpp"

#include <algorithm>

#include "src/util/assertions.hpp"

namespace pmte {

DistanceSketches DistanceSketches::build(const Graph& g,
                                         std::size_t permutations, Rng& rng) {
  PMTE_CHECK(permutations >= 1, "need at least one permutation");
  std::vector<LeListsResult> runs;
  runs.reserve(permutations);
  for (std::size_t t = 0; t < permutations; ++t) {
    const auto order = VertexOrder::random(g.num_vertices(), rng);
    runs.push_back(le_lists_sequential(g, order));
  }
  return from_lists(std::move(runs), g.num_vertices());
}

DistanceSketches DistanceSketches::from_lists(std::vector<LeListsResult> runs,
                                              Vertex n) {
  PMTE_CHECK(!runs.empty(), "no LE-list runs provided");
  DistanceSketches s;
  s.n_ = n;
  s.runs_.reserve(runs.size());
  for (auto& r : runs) {
    PMTE_CHECK(r.lists.size() == n, "LE-list run has wrong vertex count");
    s.runs_.push_back(std::move(r.lists));
  }
  return s;
}

Weight DistanceSketches::query(Vertex u, Vertex v) const {
  PMTE_CHECK(u < n_ && v < n_, "query vertex out of range");
  if (u == v) return 0.0;
  Weight best = inf_weight();
  for (const auto& lists : runs_) {
    // Sorted-merge intersection on ranks.
    const auto a = lists[u].entries();
    const auto b = lists[v].entries();
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].key < b[j].key) {
        ++i;
      } else if (b[j].key < a[i].key) {
        ++j;
      } else {
        best = std::min(best, a[i].dist + b[j].dist);
        ++i;
        ++j;
      }
    }
  }
  return best;
}

double DistanceSketches::average_entries_per_vertex() const {
  std::size_t total = 0;
  for (const auto& lists : runs_) {
    for (const auto& l : lists) total += l.size();
  }
  return static_cast<double>(total) / static_cast<double>(n_);
}

}  // namespace pmte
