// Cross-module consistency: independent implementations of the same
// quantity must agree (MBF engine vs matrix semiring vs Dijkstra vs
// Δ-stepping vs oracle), closing the loop across the whole library.
#include <gtest/gtest.h>

#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/mbf/algorithms.hpp"
#include "tests/support/reference/delta_stepping.hpp"
#include "tests/support/reference/matrix_apsp.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

class CrossModule : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph graph() {
    Rng rng(GetParam());
    return make_gnm(40, 90, {1.0, 6.0}, rng);
  }
};

TEST_P(CrossModule, FourApspImplementationsAgree) {
  const auto g = graph();
  const Vertex n = g.num_vertices();
  const auto a = exact_apsp(g);       // n Dijkstras
  const auto b = mbf_apsp(g);         // MBF engine over D
  const auto c = matrix_apsp(g).dist; // min-plus matrix squaring
  std::vector<Weight> d(static_cast<std::size_t>(n) * n);
  for (Vertex v = 0; v < n; ++v) {    // Δ-stepping rows
    const auto row = delta_stepping(g, v).dist;
    std::copy(row.begin(), row.end(),
              d.begin() + static_cast<std::ptrdiff_t>(v) * n);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (is_finite(a[i])) {
      EXPECT_NEAR(b[i], a[i], 1e-9);
      EXPECT_NEAR(c[i], a[i], 1e-9);
      EXPECT_NEAR(d[i], a[i], 1e-9);
    } else {
      EXPECT_FALSE(is_finite(b[i]));
      EXPECT_FALSE(is_finite(c[i]));
      EXPECT_FALSE(is_finite(d[i]));
    }
  }
}

TEST_P(CrossModule, LeListsAreConsistentWithApsp) {
  // Every LE-list entry must equal the true distance, and every non-entry
  // must be dominated — cross-checked against exact APSP.
  const auto g = graph();
  Rng rng(GetParam() + 1);
  const auto order = VertexOrder::random(g.num_vertices(), rng);
  const auto le = le_lists_iteration(g, order);
  const auto apsp = exact_apsp(g);
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    for (const auto& e : le.lists[v].entries()) {
      const Vertex w = order.vertex_of[e.key];
      EXPECT_NEAR(e.dist, apsp[static_cast<std::size_t>(v) * n + w], 1e-9);
    }
    for (Vertex w = 0; w < n; ++w) {
      if (is_finite(le.lists[v].at(order.rank_of[w]))) continue;
      // Dominated: some u with smaller rank at distance ≤ dist(v,w).
      const Weight dw = apsp[static_cast<std::size_t>(v) * n + w];
      bool dominated = false;
      for (Vertex u = 0; u < n && !dominated; ++u) {
        dominated = order.rank_of[u] < order.rank_of[w] &&
                    apsp[static_cast<std::size_t>(v) * n + u] <= dw + 1e-12;
      }
      EXPECT_TRUE(dominated) << "missing undominated entry";
    }
  }
}

TEST_P(CrossModule, SourceDetectionSubsumesSssp) {
  // Example 3.3's remark: SSSP == ({s}, h, ∞, 1)-source detection.
  const auto g = graph();
  const Vertex s = 7;
  const auto direct = mbf_sssp(g, s);
  const std::vector<Vertex> sources{s};
  const auto det = mbf_source_detection(g, sources, g.num_vertices(), 1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Weight lhs = det[v].at(s);
    if (is_finite(direct[v])) {
      EXPECT_NEAR(lhs, direct[v], 1e-9);
    } else {
      EXPECT_FALSE(is_finite(lhs));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossModule,
                         ::testing::Values(1601, 1602, 1603));

}  // namespace
}  // namespace pmte
