// Tests for dense semiring matrices (tests/support/reference/matrix.hpp)
// and matrix APSP (Section 1.1): the distance product is the reference
// model the MBF-like engine must agree with (Lemma 3.1), over every
// semiring.
#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"
#include "tests/support/reference/matrix.hpp"
#include "tests/support/reference/matrix_apsp.hpp"
#include "tests/support/reference/shortest_paths.hpp"

namespace pmte {
namespace {

TEST(SemiringMatrix, IdentityIsNeutral) {
  Rng rng(1);
  const auto g = make_gnm(12, 25, {1.0, 4.0}, rng);
  const auto a = min_plus_adjacency(g);
  const auto id = SemiringMatrix<MinPlus>::identity(12);
  EXPECT_EQ(a.multiply(id), a);
  EXPECT_EQ(id.multiply(a), a);
}

TEST(SemiringMatrix, PowerZeroIsIdentity) {
  Rng rng(2);
  const auto g = make_gnm(8, 15, {1.0, 2.0}, rng);
  const auto a = min_plus_adjacency(g);
  EXPECT_EQ(a.power(0), SemiringMatrix<MinPlus>::identity(8));
  EXPECT_EQ(a.power(1), a);
}

TEST(SemiringMatrix, DistanceProductGivesHopDistances) {
  // Lemma 3.1 / Equation (1.6): (A^h)_vw = dist^h(v,w,G).
  Rng rng(3);
  const auto g = make_gnm(16, 34, {1.0, 5.0}, rng);
  const auto a = min_plus_adjacency(g);
  for (unsigned h : {1U, 2U, 3U, 5U}) {
    const auto ah = a.power(h);
    for (Vertex v = 0; v < 16; ++v) {
      const auto ref = bellman_ford_hops(g, v, h);
      for (Vertex w = 0; w < 16; ++w) {
        if (is_finite(ref[w])) {
          EXPECT_NEAR(ah.at(v, w), ref[w], 1e-9) << "h=" << h;
        } else {
          EXPECT_FALSE(is_finite(ah.at(v, w)));
        }
      }
    }
  }
}

TEST(SemiringMatrix, ApplyIsSimpleLinearFunction) {
  // A(x) = Ax over Smin,+ equals one unfiltered MBF step (Def. 2.12).
  Rng rng(4);
  const auto g = make_gnm(14, 28, {1.0, 3.0}, rng);
  const auto a = min_plus_adjacency(g);
  std::vector<Weight> x(14, inf_weight());
  x[3] = 0.0;
  x[7] = 2.0;
  const auto y = a.apply(x);
  // Reference: y_v = min(x_v, min over edges (v,u) of w + x_u).
  for (Vertex v = 0; v < 14; ++v) {
    Weight ref = x[v];
    for (const auto& e : g.neighbors(v)) {
      ref = std::min(ref, MinPlus::times(e.weight, x[e.to]));
    }
    EXPECT_DOUBLE_EQ(y[v], ref);
  }
}

TEST(SemiringMatrix, BooleanPowerIsReachability) {
  Rng rng(5);
  const auto g = make_gnm(15, 24, {1.0, 1.0}, rng);
  const auto a = boolean_adjacency(g);
  for (unsigned h : {1U, 2U, 4U}) {
    const auto ah = a.power(h);
    const auto hops = bfs_hops(g, 0);
    for (Vertex v = 0; v < 15; ++v) {
      EXPECT_EQ(ah.at(0, v) != 0, hops[v] <= h) << "h=" << h << " v=" << v;
    }
  }
}

TEST(SemiringMatrix, MaxMinPowerIsWidestPath) {
  Rng rng(6);
  const auto g = make_gnm(12, 26, {1.0, 9.0}, rng);
  const auto a = max_min_adjacency(g);
  const auto fix = a.power(12);
  const auto ref = mbf_apwp(g);
  for (Vertex v = 0; v < 12; ++v) {
    for (Vertex w = 0; w < 12; ++w) {
      const Weight lhs = fix.at(v, w);
      const Weight rhs = ref[static_cast<std::size_t>(v) * 12 + w];
      if (is_finite(lhs) || is_finite(rhs)) {
        EXPECT_NEAR(lhs, rhs, 1e-9);
      }
    }
  }
}

TEST(SemiringMatrix, DimensionMismatchThrows) {
  SemiringMatrix<MinPlus> a(3), b(4);
  EXPECT_THROW((void)a.multiply(b), std::logic_error);
  EXPECT_THROW((void)a.add(b), std::logic_error);
  EXPECT_THROW((void)a.apply(std::vector<Weight>(4)), std::logic_error);
}

class MatrixApsp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixApsp, MatchesDijkstra) {
  Rng rng(GetParam());
  const auto g = make_gnm(24, 50, {1.0, 6.0}, rng);
  const auto mr = matrix_apsp(g);
  const auto ref = exact_apsp(g);
  ASSERT_EQ(mr.dist.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(mr.dist[i], ref[i], 1e-9);
  }
  EXPECT_GE(mr.squarings, 1U);
  EXPECT_LE(mr.squarings, 6U);  // ceil(log2 SPD) + 1
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixApsp,
                         ::testing::Values(1301, 1302, 1303, 1304));

TEST(MatrixApsp, FixpointCountTracksSpd) {
  // Path of length 33: SPD 32, so 5–6 squarings reach the fixpoint.
  const auto g = make_path(33);
  const auto mr = matrix_apsp(g);
  EXPECT_GE(mr.squarings, 5U);
  EXPECT_DOUBLE_EQ(mr.dist[32], 32.0);
}

}  // namespace
}  // namespace pmte
