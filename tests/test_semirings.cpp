// Property tests for the semiring axioms (Definition A.2) of all four
// semirings, using the generic checkers from
// tests/support/reference/axioms.hpp.
#include <gtest/gtest.h>

#include <cmath>

#include "tests/support/reference/axioms.hpp"
#include "src/algebra/path_set.hpp"
#include "src/util/rng.hpp"

namespace pmte {
namespace {

// Dyadic-rational samples (multiples of 1/4): sums of these are exact in
// binary floating point, so the semiring laws can be checked with exact
// equality (real-valued `+` is only associative up to rounding).
std::vector<Weight> weight_samples(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Weight> xs{0.0, 1.0, inf_weight()};
  while (xs.size() < count) {
    xs.push_back(std::floor(rng.uniform(0.0, 400.0)) / 4.0);
  }
  return xs;
}

class ScalarSemiringAxioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarSemiringAxioms, MinPlus) {
  const auto xs = weight_samples(GetParam(), 9);
  const auto eq = [](const Weight& a, const Weight& b) { return a == b; };
  const auto rep = check_semiring_axioms<MinPlus>(xs, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST_P(ScalarSemiringAxioms, MaxMin) {
  const auto xs = weight_samples(GetParam() + 100, 9);
  const auto eq = [](const Weight& a, const Weight& b) { return a == b; };
  const auto rep = check_semiring_axioms<MaxMin>(xs, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarSemiringAxioms,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BooleanSemiringAxioms, Exhaustive) {
  using B = BooleanSemiring::Value;
  const std::vector<B> xs{0, 1};
  const auto eq = [](const B& a, const B& b) { return a == b; };
  const auto rep = check_semiring_axioms<BooleanSemiring>(xs, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(ScalarFilter, ForestFireCapIsCongruent) {
  // Example 3.7's filter r(x) = x if x ≤ d else ∞ on M = Smin,+ must be a
  // congruence (Lemma 2.8) — checked with the generic axiom machinery.
  const double d = 10.0;
  const auto r = [d](const Weight& x) { return x <= d ? x : inf_weight(); };
  std::vector<Weight> elems{0.0, 2.0, 9.75, 10.0, 10.25, 40.0, inf_weight()};
  const std::vector<Weight> scalars{0.0, 1.0, 8.0, 64.0, inf_weight()};
  const auto madd = [](const Weight& a, const Weight& b) {
    return MinPlus::plus(a, b);
  };
  const auto smul = [](const Weight& s, const Weight& x) {
    return MinPlus::times(s, x);
  };
  const auto eq = [](const Weight& a, const Weight& b) { return a == b; };
  const auto rep = check_congruence<MinPlus, Weight>(
      scalars, elems, madd, smul, r, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(SemiringConstants, NeutralElements) {
  EXPECT_DOUBLE_EQ(MinPlus::zero(), inf_weight());
  EXPECT_DOUBLE_EQ(MinPlus::one(), 0.0);
  EXPECT_DOUBLE_EQ(MaxMin::zero(), 0.0);
  EXPECT_DOUBLE_EQ(MaxMin::one(), inf_weight());
  // ∞ ⊙ ∞ = ∞ in min-plus (annihilation, not NaN).
  EXPECT_DOUBLE_EQ(MinPlus::times(inf_weight(), inf_weight()), inf_weight());
  EXPECT_DOUBLE_EQ(MinPlus::times(0.0, inf_weight()), inf_weight());
}

// ---------------------------------------------------------------------
// All-paths semiring Pmin,+ (Definition 3.17, Lemma 3.18).
// Elements are built over a tiny vertex universe so ⊙ stays concatenable.

PathSet sample_pathset(Rng& rng) {
  PathSet p = rng.flip(0.3) ? PathSet::one() : PathSet::zero();
  const int entries = static_cast<int>(rng.below(3));
  for (int e = 0; e < entries; ++e) {
    // Random loop-free path over vertices {0..4}, 1..3 hops.
    std::vector<Vertex> hops;
    const int len = 1 + static_cast<int>(rng.below(3));
    std::vector<Vertex> universe{0, 1, 2, 3, 4};
    shuffle(universe.begin(), universe.end(), rng);
    hops.assign(universe.begin(), universe.begin() + len);
    // Dyadic weights keep ⊙ (weight addition) exactly associative.
    p = p.plus(PathSet::single(VertexPath{hops},
                               std::floor(rng.uniform(0.0, 40.0)) / 4.0));
  }
  return p;
}

class AllPathsAxioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllPathsAxioms, SemiringLaws) {
  Rng rng(GetParam());
  std::vector<PathSet> xs{PathSet::zero(), PathSet::one()};
  for (int i = 0; i < 4; ++i) xs.push_back(sample_pathset(rng));
  const auto eq = [](const PathSet& a, const PathSet& b) { return a == b; };

  for (const auto& x : xs) {
    EXPECT_TRUE(eq(x.plus(PathSet::zero()), x)) << "x ⊕ 0 != x";
    EXPECT_TRUE(eq(x.times(PathSet::one()), x)) << "x ⊙ 1 != x";
    EXPECT_TRUE(eq(PathSet::one().times(x), x)) << "1 ⊙ x != x";
    EXPECT_TRUE(eq(x.times(PathSet::zero()), PathSet::zero()))
        << "x ⊙ 0 != 0";
    EXPECT_TRUE(eq(PathSet::zero().times(x), PathSet::zero()))
        << "0 ⊙ x != 0";
    for (const auto& y : xs) {
      EXPECT_TRUE(eq(x.plus(y), y.plus(x))) << "⊕ not commutative";
      for (const auto& z : xs) {
        EXPECT_TRUE(eq(x.plus(y).plus(z), x.plus(y.plus(z))))
            << "⊕ not associative";
        EXPECT_TRUE(eq(x.times(y).times(z), x.times(y.times(z))))
            << "⊙ not associative";
        EXPECT_TRUE(eq(x.times(y.plus(z)), x.times(y).plus(x.times(z))))
            << "left distributivity";
        EXPECT_TRUE(eq(y.plus(z).times(x), y.times(x).plus(z.times(x))))
            << "right distributivity";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllPathsAxioms,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(AllPaths, ConcatenationSemantics) {
  // (0,1)·1 ⊙ (1,2)·2 = (0,1,2)·3.
  const auto a = PathSet::single(VertexPath{{0, 1}}, 1.0);
  const auto b = PathSet::single(VertexPath{{1, 2}}, 2.0);
  const auto ab = a.times(b);
  EXPECT_DOUBLE_EQ(ab.weight_of(VertexPath{{0, 1, 2}}), 3.0);
  EXPECT_EQ(ab.size(), 1U);
  // Non-concatenable product is empty.
  const auto c = PathSet::single(VertexPath{{3, 4}}, 1.0);
  EXPECT_EQ(a.times(c).size(), 0U);
}

TEST(AllPaths, LoopsAreExcluded) {
  // (0,1) ⊙ (1,0) would close a loop (0,1,0) ∉ P.
  const auto a = PathSet::single(VertexPath{{0, 1}}, 1.0);
  const auto b = PathSet::single(VertexPath{{1, 0}}, 1.0);
  EXPECT_EQ(a.times(b).size(), 0U);
}

TEST(AllPaths, PlusTakesMinimumWeight) {
  const auto a = PathSet::single(VertexPath{{0, 1}}, 5.0);
  const auto b = PathSet::single(VertexPath{{0, 1}}, 3.0);
  const auto s = a.plus(b);
  EXPECT_EQ(s.size(), 1U);
  EXPECT_DOUBLE_EQ(s.weight_of(VertexPath{{0, 1}}), 3.0);
}

TEST(AllPaths, FilterKeepsKShortestPerStart) {
  PathSet x;
  x = x.plus(PathSet::single(VertexPath{{0, 1, 2}}, 3.0));
  x = x.plus(PathSet::single(VertexPath{{0, 2}}, 5.0));
  x = x.plus(PathSet::single(VertexPath{{0, 3, 2}}, 7.0));
  x = x.plus(PathSet::single(VertexPath{{1, 2}}, 1.0));
  x = x.plus(PathSet::single(VertexPath{{0, 3}}, 1.0));  // wrong target
  const auto f = x.filter_k_shortest(/*target=*/2, /*k=*/2);
  EXPECT_EQ(f.size(), 3U);  // two starting at 0, one at 1
  EXPECT_TRUE(is_finite(f.weight_of(VertexPath{{0, 1, 2}})));
  EXPECT_TRUE(is_finite(f.weight_of(VertexPath{{0, 2}})));
  EXPECT_FALSE(is_finite(f.weight_of(VertexPath{{0, 3, 2}})));
  EXPECT_FALSE(is_finite(f.weight_of(VertexPath{{0, 3}})));
}

TEST(AllPaths, DistinctWeightFilter) {
  PathSet x;
  x = x.plus(PathSet::single(VertexPath{{0, 1, 2}}, 3.0));
  x = x.plus(PathSet::single(VertexPath{{0, 3, 2}}, 3.0));  // same weight
  x = x.plus(PathSet::single(VertexPath{{0, 2}}, 4.0));
  const auto f = x.filter_k_shortest(2, 2, /*distinct=*/true);
  EXPECT_EQ(f.size(), 2U);
  // Lexicographically smaller path represents weight 3.
  EXPECT_TRUE(is_finite(f.weight_of(VertexPath{{0, 1, 2}})));
  EXPECT_TRUE(is_finite(f.weight_of(VertexPath{{0, 2}})));
}

}  // namespace
}  // namespace pmte
