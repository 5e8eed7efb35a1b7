// Reference-model tests for the MBF-like algorithm collection (Section 3):
// every instance is validated against a classical baseline.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/generators.hpp"
#include "src/graph/shortest_paths.hpp"
#include "src/mbf/algorithms.hpp"

namespace pmte {
namespace {

class MbfVsBaseline : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph random_graph() {
    Rng rng(GetParam());
    return make_gnm(28, 60, {1.0, 5.0}, rng);
  }
};

TEST_P(MbfVsBaseline, SsspMatchesDijkstra) {
  const auto g = random_graph();
  const auto mbf = mbf_sssp(g, 0);
  const auto ref = dijkstra(g, 0).dist;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(mbf[v], ref[v], 1e-9) << "vertex " << v;
  }
}

TEST_P(MbfVsBaseline, HopLimitedSsspMatchesBellmanFord) {
  const auto g = random_graph();
  for (unsigned h : {0U, 1U, 2U, 4U}) {
    const auto mbf = mbf_sssp(g, 3, h);
    const auto ref = bellman_ford_hops(g, 3, h);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (is_finite(ref[v])) {
        EXPECT_NEAR(mbf[v], ref[v], 1e-9);
      } else {
        EXPECT_FALSE(is_finite(mbf[v]));
      }
    }
  }
}

TEST_P(MbfVsBaseline, ApspMatchesExact) {
  const auto g = random_graph();
  const Vertex n = g.num_vertices();
  const auto mbf = mbf_apsp(g);
  const auto ref = exact_apsp(g);
  for (std::size_t i = 0; i < mbf.size(); ++i) {
    EXPECT_NEAR(mbf[i], ref[i], 1e-9);
  }
  (void)n;
}

TEST_P(MbfVsBaseline, KsspContainsKClosest) {
  const auto g = random_graph();
  const Vertex n = g.num_vertices();
  const std::size_t k = 4;
  const auto maps = mbf_kssp(g, k);
  const auto ref = exact_apsp(g);
  for (Vertex v = 0; v < n; ++v) {
    // Expected: k smallest (dist, w) pairs.
    std::vector<DistEntry> all;
    for (Vertex w = 0; w < n; ++w) {
      const Weight d = ref[static_cast<std::size_t>(v) * n + w];
      if (is_finite(d)) all.push_back(DistEntry{w, d});
    }
    std::sort(all.begin(), all.end(), [](const DistEntry& a, const DistEntry& b) {
      return a.dist < b.dist || (a.dist == b.dist && a.key < b.key);
    });
    // Keep the k closest; erase (not resize) so GCC 12's -Warray-bounds does
    // not flag the never-taken growth path of resize under -O2.
    if (all.size() > k) {
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(k), all.end());
    }
    ASSERT_EQ(maps[v].size(), all.size());
    for (const auto& e : all) {
      EXPECT_NEAR(maps[v].at(e.key), e.dist, 1e-9)
          << "vertex " << v << " target " << e.key;
    }
  }
}

TEST_P(MbfVsBaseline, KsspZeroIsBottom) {
  // Keeping the 0 closest sources leaves every map ⊥, at any hop bound.
  const auto g = random_graph();
  for (const unsigned hops : {1U, 4U, ~0U}) {
    const auto maps = mbf_kssp(g, 0, hops);
    ASSERT_EQ(maps.size(), g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_TRUE(maps[v].empty()) << "vertex " << v << ", hops " << hops;
    }
  }
}

TEST_P(MbfVsBaseline, SourceDetectionDefinition) {
  const auto g = random_graph();
  const Vertex n = g.num_vertices();
  const std::vector<Vertex> sources{1, 7, 13, 20};
  const std::size_t k = 2;
  const auto maps = mbf_source_detection(g, sources, n, k);
  const auto ref = exact_apsp(g);
  for (Vertex v = 0; v < n; ++v) {
    std::vector<DistEntry> all;
    for (Vertex s : sources) {
      const Weight d = ref[static_cast<std::size_t>(v) * n + s];
      if (is_finite(d)) all.push_back(DistEntry{s, d});
    }
    std::sort(all.begin(), all.end(), [](const DistEntry& a, const DistEntry& b) {
      return a.dist < b.dist || (a.dist == b.dist && a.key < b.key);
    });
    if (all.size() > k) {
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(k), all.end());
    }
    ASSERT_EQ(maps[v].size(), all.size()) << "vertex " << v;
    for (const auto& e : all) EXPECT_NEAR(maps[v].at(e.key), e.dist, 1e-9);
  }
}

TEST_P(MbfVsBaseline, ForestFireRadius) {
  const auto g = random_graph();
  const std::vector<Vertex> burning{2, 19};
  const Weight radius = 4.0;
  const auto ff = mbf_forest_fire(g, burning, radius);
  const auto ms = multi_source_dijkstra(g, burning);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const bool expect_alarm = ms.dist[v] <= radius;
    EXPECT_EQ(ff.alarmed[v], expect_alarm) << "vertex " << v;
    if (expect_alarm) {
      EXPECT_NEAR(ff.dist[v], ms.dist[v], 1e-9);
    }
  }
}

// Brute-force widest paths via Floyd–Warshall over Smax,min.
std::vector<Weight> widest_reference(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Weight> w(static_cast<std::size_t>(n) * n, 0.0);
  for (Vertex v = 0; v < n; ++v) {
    w[static_cast<std::size_t>(v) * n + v] = inf_weight();
    for (const auto& e : g.neighbors(v)) {
      w[static_cast<std::size_t>(v) * n + e.to] = e.weight;
    }
  }
  for (Vertex k = 0; k < n; ++k) {
    for (Vertex i = 0; i < n; ++i) {
      for (Vertex j = 0; j < n; ++j) {
        const Weight via = std::min(w[static_cast<std::size_t>(i) * n + k],
                                    w[static_cast<std::size_t>(k) * n + j]);
        auto& cur = w[static_cast<std::size_t>(i) * n + j];
        cur = std::max(cur, via);
      }
    }
  }
  return w;
}

void expect_weight_near(Weight a, Weight b, const char* what,
                        std::size_t index) {
  if (is_finite(a) || is_finite(b)) {
    EXPECT_NEAR(a, b, 1e-9) << what << " " << index;
  } else {
    SUCCEED();  // both infinite (∞ − ∞ is NaN, so EXPECT_NEAR can't be used)
  }
}

TEST_P(MbfVsBaseline, WidestPathsMatchFloydWarshall) {
  const auto g = random_graph();
  const Vertex n = g.num_vertices();
  const auto ref = widest_reference(g);
  const auto apwp = mbf_apwp(g);
  for (std::size_t i = 0; i < apwp.size(); ++i) {
    expect_weight_near(apwp[i], ref[i], "entry", i);
  }
  const auto sswp = mbf_sswp(g, 5);
  for (Vertex v = 0; v < n; ++v) {
    expect_weight_near(sswp[v], ref[static_cast<std::size_t>(5) * n + v],
                       "vertex", v);
  }
}

TEST_P(MbfVsBaseline, ReachabilityMatchesBfs) {
  // Disconnect the graph by splitting it in two halves.
  Rng rng(GetParam() + 99);
  auto g1 = make_gnm(12, 20, {1.0, 1.0}, rng);
  auto edges = g1.edge_list();
  for (auto& e : edges) {
    e.u += 12;
    e.v += 12;
  }
  auto g2 = make_gnm(12, 18, {1.0, 1.0}, rng);
  auto all = g2.edge_list();
  all.insert(all.end(), edges.begin(), edges.end());
  const auto g = Graph::from_edges(24, all);

  const std::vector<Vertex> sources{0, 15};
  const auto reach = mbf_reachability(g, sources, 24);
  for (Vertex v = 0; v < 24; ++v) {
    for (Vertex s : sources) {
      const auto hops = bfs_hops(g, s);
      const bool connected = hops[v] != ~0U;
      const bool found = std::find(reach[v].begin(), reach[v].end(), s) !=
                         reach[v].end();
      EXPECT_EQ(found, connected) << "v=" << v << " s=" << s;
    }
  }
}

TEST_P(MbfVsBaseline, HopBoundedReachability) {
  const auto g = random_graph();
  const std::vector<Vertex> sources{0};
  for (unsigned h : {1U, 2U, 3U}) {
    const auto reach = mbf_reachability(g, sources, h);
    const auto hops = bfs_hops(g, 0);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const bool expect = hops[v] <= h;
      const bool found = !reach[v].empty();
      EXPECT_EQ(found, expect) << "v=" << v << " h=" << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbfVsBaseline,
                         ::testing::Values(101, 102, 103, 104, 105));

TEST(MbfAlgorithms, MswpSourcesOnly) {
  auto g = make_path(5, {3.0, 3.0});
  const std::vector<Vertex> sources{0, 4};
  const auto maps = mbf_mswp(g, sources);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(maps[v].size(), 2U);
    for (const auto& e : maps[v].entries()) {
      EXPECT_TRUE(e.key == 0U || e.key == 4U);
    }
  }
  // Width along a uniform path is the edge weight (or ∞ to itself).
  EXPECT_DOUBLE_EQ(maps[2].at(0), 3.0);
  EXPECT_DOUBLE_EQ(maps[0].at(0), inf_weight());
}

TEST(MbfAlgorithms, RejectsBadArguments) {
  auto g = make_path(4);
  EXPECT_THROW((void)mbf_sssp(g, 9), std::logic_error);
  EXPECT_THROW((void)mbf_forest_fire(g, std::vector<Vertex>{9}, 1.0),
               std::logic_error);
  EXPECT_THROW((void)mbf_ksdp(g, 9, 1), std::logic_error);
}

}  // namespace
}  // namespace pmte
