// Tests for the OpenMP helpers and work/depth instrumentation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "tests/support/parallel_reduce.hpp"

namespace pmte {
namespace {

TEST(Parallel, ForCoversEveryIndexOnce) {
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ForHandlesSmallRangesSerially) {
  int count = 0;  // intentionally unsynchronised: small ranges run serially
  parallel_for(10, [&](std::size_t) { ++count; }, 64);
  EXPECT_EQ(count, 10);
}

TEST(Parallel, BalancedForCoversEveryIndexOnce) {
  // Skewed costs (one huge item, many tiny ones) and zero costs must not
  // change coverage: every index exactly once.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{1000}, std::size_t{10000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for_balanced(
        n, [&](std::size_t i) { return i == 0 ? 100000 : i % 3; },
        [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(Parallel, BalancedForMatchesPlainForAcrossThreadCounts) {
  const int restore = num_threads();
  const std::size_t n = 5000;
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    std::vector<double> out(n, 0.0);
    parallel_for_balanced(
        n, [&](std::size_t i) { return (i * 37) % 101; },
        [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5 + 1.0; });
    EXPECT_EQ(out, reference) << "threads " << threads;
  }
  set_num_threads(restore);
}

TEST(Parallel, BalancedForCountersAreThreadCountInvariant) {
  // WorkDepth adds from inside a balanced loop must total the same at any
  // thread count — the counters are logical-operation counts.
  const int restore = num_threads();
  const std::size_t n = 4000;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected += i % 17;
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    const WorkDepthScope scope;
    parallel_for_balanced(
        n, [&](std::size_t i) { return i % 17; },
        [&](std::size_t i) { WorkDepth::add_relaxations(i % 17); });
    EXPECT_EQ(scope.relaxations_delta(), expected) << "threads " << threads;
  }
  set_num_threads(restore);
}

TEST(Parallel, ReduceSum) {
  const double s =
      test::parallel_reduce_sum(1000, [](std::size_t i) { return double(i); });
  EXPECT_DOUBLE_EQ(s, 999.0 * 1000.0 / 2.0);
}

TEST(Parallel, ThreadCountControls) {
  const int before = num_threads();
  EXPECT_GE(before, 1);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(before);
  EXPECT_EQ(num_threads(), before);
}

TEST(WorkDepthCounters, AccumulateAcrossThreads) {
  WorkDepth::reset();
  parallel_for(1000, [](std::size_t) { WorkDepth::add_work(3); });
  EXPECT_EQ(WorkDepth::work(), 3000U);
  WorkDepth::add_depth(5);
  EXPECT_EQ(WorkDepth::depth(), 5U);
}

TEST(WorkDepthCounters, ScopeMeasuresDeltas) {
  WorkDepth::reset();
  WorkDepth::add_work(100);
  const WorkDepthScope scope;
  WorkDepth::add_work(42);
  WorkDepth::add_depth(2);
  EXPECT_EQ(scope.work_delta(), 42U);
  EXPECT_EQ(scope.depth_delta(), 2U);
}

TEST(WorkDepthCounters, RelaxationAndEdgeCountersAreIndependent) {
  WorkDepth::reset();
  const WorkDepthScope scope;
  parallel_for(500, [](std::size_t) {
    WorkDepth::add_relaxations(2);
    WorkDepth::add_edges_touched(7);
  });
  EXPECT_EQ(scope.relaxations_delta(), 1000U);
  EXPECT_EQ(scope.edges_touched_delta(), 3500U);
  EXPECT_EQ(scope.work_delta(), 0U);
}

TEST(PerThreadBuffers, DrainSortedIsDeterministic) {
  const int restore = num_threads();
  const std::size_t n = 20000;
  std::vector<std::uint32_t> reference;
  for (const int threads : {1, 2, 8}) {
    set_num_threads(threads);
    PerThreadBuffers<std::uint32_t> buffers;
    buffers.clear();
    parallel_for(n, [&](std::size_t i) {
      if (i % 3 == 0) buffers.local().push_back(static_cast<std::uint32_t>(i));
    });
    std::vector<std::uint32_t> out;
    buffers.drain_sorted(out);
    ASSERT_EQ(out.size(), (n + 2) / 3) << threads << " threads";
    for (std::size_t j = 0; j < out.size(); ++j) {
      ASSERT_EQ(out[j], 3 * j) << threads << " threads";
    }
    if (threads == 1) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << threads << " threads";
    }
  }
  set_num_threads(restore);
}

TEST(PerThreadBuffers, DrainEmptiesBuffers) {
  PerThreadBuffers<int> buffers;
  buffers.clear();
  buffers.local().push_back(4);
  buffers.local().push_back(1);
  std::vector<int> out;
  buffers.drain_sorted(out);
  EXPECT_EQ(out, (std::vector<int>{1, 4}));
  buffers.drain_sorted(out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace pmte
