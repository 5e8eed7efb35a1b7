#include "tests/support/reference/matrix_apsp.hpp"

#include "src/util/timer.hpp"
#include "tests/support/reference/matrix.hpp"

namespace pmte {

MatrixApspResult matrix_apsp(const Graph& g) {
  const Timer timer;
  MatrixApspResult r;
  const Vertex n = g.num_vertices();
  auto a = min_plus_adjacency(g);
  // Fixpoint iteration A ← A² (Section 1.1); at most ⌈log₂ n⌉ rounds.
  for (unsigned round = 0; (1ULL << round) < std::max<Vertex>(n, 2);
       ++round) {
    auto squared = a.multiply(a);
    ++r.squarings;
    if (squared == a) break;
    a = std::move(squared);
  }
  r.dist.resize(std::size_t{n} * n);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      r.dist[std::size_t{i} * n + j] = a.at(i, j);
    }
  }
  r.seconds = timer.seconds();
  return r;
}

}  // namespace pmte
