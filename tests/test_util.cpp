// Unit tests for src/util: RNG, permutations, statistics, tables, CLI,
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "src/util/assertions.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "tests/support/reference/table.hpp"

namespace pmte {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(13);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.below(10)];
  for (int h : hits) EXPECT_GT(h, 700);
}

TEST(Rng, FlipProbability) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.flip(0.25);
  EXPECT_NEAR(heads / 20000.0, 0.25, 0.02);
}

TEST(Permutation, IsBijection) {
  Rng rng(3);
  const auto perm = random_permutation(257, rng);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Permutation, InverseRoundTrips) {
  Rng rng(5);
  const auto perm = random_permutation(100, rng);
  const auto inv = invert_permutation(perm);
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
    EXPECT_EQ(perm[inv[i]], i);
  }
}

TEST(Permutation, LooksUniform) {
  // Position of element 0 should be roughly uniform across many draws.
  Rng rng(9);
  std::vector<int> pos_count(8, 0);
  for (int t = 0; t < 8000; ++t) {
    const auto perm = random_permutation(8, rng);
    for (int i = 0; i < 8; ++i) {
      if (perm[i] == 0) ++pos_count[i];
    }
  }
  for (int c : pos_count) EXPECT_NEAR(c, 1000, 150);
}

TEST(Stats, SummarizeBasics) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5U);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, PercentileRejectsEmpty) {
  EXPECT_THROW((void)percentile_sorted({}, 0.5), std::logic_error);
}

TEST(Stats, RunningStatsMatchesSummarize) {
  Rng rng(21);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    rs.add(x);
  }
  const auto s = summarize(xs);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-9);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_NEAR(std::sqrt(rs.variance()), s.stddev, 1e-9);
}

TEST(Stats, RunningStatsMerge) {
  Rng rng(22);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 1);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, FormatDouble) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(1.5), "1.500");
  EXPECT_EQ(format_double(0.0), "0.000");
}

TEST(Table, PrintsMarkdown) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("| a"), std::string::npos);
  EXPECT_NE(text.find("|---"), std::string::npos);
  EXPECT_EQ(t.rows(), 1U);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Check, ErrorCarriesMessageApartFromLocation) {
  // Developers read the expression and source location in what();
  // operators get message() alone.  It stays a std::logic_error.
  try {
    const int count = 3;
    PMTE_CHECK(count == 4, "want 4 trees, got " + std::to_string(count));
    ADD_FAILURE() << "check passed";
  } catch (const CheckError& err) {
    EXPECT_STREQ(err.message(), "want 4 trees, got 3");
    const std::string what = err.what();
    EXPECT_EQ(what.find("PMTE check failed: (count == 4) at "), 0U) << what;
    EXPECT_NE(what.find("test_util.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.substr(what.size() - std::strlen(err.message())),
              err.message());
  }
  EXPECT_THROW(PMTE_CHECK(false, "x"), std::logic_error);
}

TEST(Cli, ParsesOptions) {
  const char* argv[] = {"prog", "--n=42", "--flag", "--rate=1.5",
                        "positional"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 1.5);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.has("positional"));
  EXPECT_EQ(cli.seed(99), 99U);
}

TEST(CliDeathTest, RejectsMalformedValuesAndUnknownArguments) {
  const char* argv[] = {"prog", "--n=96x", "--rate=nan", "--k=7", "--big=1e999"};
  const Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("k", 0), 7);
  EXPECT_EXIT((void)cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "--n=96x: not an integer");
  EXPECT_EXIT((void)cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "--rate=nan: not a finite number");
  EXPECT_EXIT((void)cli.get_double("big", 0.0), ::testing::ExitedWithCode(2),
              "--big=1e999: not a finite number");
  cli.reject_unknown({"n", "rate", "k", "big"});  // all declared: returns
  EXPECT_EXIT(cli.reject_unknown({"n", "rate", "k"}),
              ::testing::ExitedWithCode(2), "unknown flag --big");

  const char* stray[] = {"prog", "--n=1", "stray"};
  EXPECT_EXIT(Cli(3, const_cast<char**>(stray)).reject_unknown({"n"}),
              ::testing::ExitedWithCode(2), "unexpected argument stray");
  const char* twice[] = {"prog", "--n=1", "--n=2"};
  EXPECT_EXIT(Cli(3, const_cast<char**>(twice)), ::testing::ExitedWithCode(2),
              "--n given twice");
}

}  // namespace
}  // namespace pmte
