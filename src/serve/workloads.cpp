#include "src/serve/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/assertions.hpp"

namespace pmte::serve {

const char* workload_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::uniform:
      return "uniform";
    case WorkloadKind::bfs_local:
      return "bfs_local";
    case WorkloadKind::zipf:
    default:
      return "zipf";
  }
}

namespace {

std::vector<std::pair<Vertex, Vertex>> uniform_pairs(Vertex n,
                                                     std::size_t count,
                                                     Rng& rng) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<Vertex>(rng.below(n)),
                       static_cast<Vertex>(rng.below(n)));
  }
  return pairs;
}

/// Hop-limited BFS ball around `centre`, capped at `cap` vertices.
std::vector<Vertex> bfs_ball(const Graph& g, Vertex centre, unsigned hops,
                             std::size_t cap,
                             std::vector<unsigned>& hop_of) {
  std::vector<Vertex> ball{centre};
  hop_of[centre] = 0;
  for (std::size_t head = 0; head < ball.size() && ball.size() < cap;
       ++head) {
    const Vertex u = ball[head];
    if (hop_of[u] == hops) continue;
    for (const auto& e : g.neighbors(u)) {
      if (hop_of[e.to] != static_cast<unsigned>(-1)) continue;
      hop_of[e.to] = hop_of[u] + 1;
      ball.push_back(e.to);
      if (ball.size() == cap) break;
    }
  }
  for (const Vertex v : ball) hop_of[v] = static_cast<unsigned>(-1);
  return ball;
}

std::vector<std::pair<Vertex, Vertex>> bfs_local_pairs(
    const Graph& g, const WorkloadOptions& opts, Rng& rng) {
  const Vertex n = g.num_vertices();
  std::vector<std::pair<Vertex, Vertex>> pairs;
  pairs.reserve(opts.pairs);
  std::vector<unsigned> hop_of(n, static_cast<unsigned>(-1));
  while (pairs.size() < opts.pairs) {
    const auto centre = static_cast<Vertex>(rng.below(n));
    const auto ball =
        bfs_ball(g, centre, opts.bfs_hops, opts.bfs_ball_cap, hop_of);
    // A handful of pairs per ball keeps the centres varied.
    const std::size_t burst =
        std::min<std::size_t>(8, opts.pairs - pairs.size());
    for (std::size_t i = 0; i < burst; ++i) {
      pairs.emplace_back(ball[rng.below(ball.size())],
                         ball[rng.below(ball.size())]);
    }
  }
  return pairs;
}

std::vector<std::pair<Vertex, Vertex>> zipf_pairs(Vertex n,
                                                  const WorkloadOptions& opts,
                                                  Rng& rng) {
  // Popularity rank r (0 = hottest) gets mass 1/(r+1)^s; a random
  // permutation maps ranks to vertices so the hot set is seed-dependent.
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (Vertex r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), opts.zipf_s);
    cdf[r] = acc;
  }
  const auto vertex_of_rank = random_permutation(n, rng);
  auto draw = [&]() -> Vertex {
    const double x = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    const auto rank = static_cast<std::size_t>(it - cdf.begin());
    return vertex_of_rank[std::min<std::size_t>(rank, n - 1)];
  };
  std::vector<std::pair<Vertex, Vertex>> pairs;
  pairs.reserve(opts.pairs);
  for (std::size_t i = 0; i < opts.pairs; ++i) {
    pairs.emplace_back(draw(), draw());
  }
  return pairs;
}

}  // namespace

std::vector<std::pair<Vertex, Vertex>> make_workload(
    const Graph& g, WorkloadKind kind, const WorkloadOptions& opts,
    Rng& rng) {
  PMTE_CHECK(g.num_vertices() >= 1, "make_workload: empty graph");
  switch (kind) {
    case WorkloadKind::uniform:
      return uniform_pairs(g.num_vertices(), opts.pairs, rng);
    case WorkloadKind::bfs_local:
      return bfs_local_pairs(g, opts, rng);
    case WorkloadKind::zipf:
    default:
      return zipf_pairs(g.num_vertices(), opts, rng);
  }
}

std::vector<TenantQuery> make_multi_tenant_workload(
    const Graph& g, const std::vector<TenantStreamSpec>& specs,
    std::uint64_t seed) {
  PMTE_CHECK(!specs.empty(), "make_multi_tenant_workload: no tenant specs");
  PMTE_CHECK(specs.size() < (std::uint64_t{1} << 32),
             "make_multi_tenant_workload: too many tenants");

  // Per-tenant substreams, each from its own split_seed stream so a
  // tenant's queries never depend on the other tenants' specs.
  std::vector<std::vector<std::pair<Vertex, Vertex>>> streams(specs.size());
  std::size_t total = 0;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    Rng rng(split_seed(seed, kTenantWorkloadStreamBase + t));
    streams[t] = make_workload(g, specs[t].kind, specs[t].opts, rng);
    total += streams[t].size();
  }

  // Interleaving: Fisher–Yates over the multiset of tenant tags, from its
  // own stream.  Consuming each tenant's substream in tag order preserves
  // the substream's internal order exactly.
  std::vector<TenantId> tags;
  tags.reserve(total);
  for (std::size_t t = 0; t < specs.size(); ++t) {
    tags.insert(tags.end(), streams[t].size(), static_cast<TenantId>(t));
  }
  Rng shuffle_rng(split_seed(seed, kTenantInterleaveStream));
  for (std::size_t i = tags.size(); i > 1; --i) {
    std::swap(tags[i - 1], tags[shuffle_rng.below(i)]);
  }

  std::vector<TenantQuery> merged;
  merged.reserve(total);
  std::vector<std::size_t> next(specs.size(), 0);
  for (const TenantId t : tags) {
    const auto& [u, v] = streams[t][next[t]++];
    merged.push_back(TenantQuery{t, u, v});
  }
  return merged;
}

}  // namespace pmte::serve
