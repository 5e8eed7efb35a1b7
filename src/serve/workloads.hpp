#pragma once
// Deterministic query-pair workload generators for the serving layer.
//
// Three traffic shapes cover the regimes a distance service sees:
//
//   uniform    — both endpoints uniform over V; the textbook benchmark and
//                the worst case for any locality-exploiting cache.
//   bfs_local  — pairs inside small hop neighbourhoods (pick a centre,
//                collect a bounded-hop BFS ball, draw both endpoints from
//                it): models "nearby" traffic such as map or social
//                queries, and exercises the low tree levels where FRT
//                stretch is worst relative to dist_G.
//   zipf       — endpoints drawn from a Zipf(s) popularity ranking over a
//                random vertex permutation: models skewed entity
//                popularity; a handful of hot vertices dominate.
//
// All generators draw only from the caller's Rng, so a (graph, kind, seed)
// triple fixes the workload exactly — the bench gate and the thread-count
// determinism tests replay identical pair lists.
//
// The multi-tenant generator composes single-tenant streams for the
// many-tenant server (server.hpp): per-tenant substreams draw from
// split_seed-derived streams and a separate seeded shuffle fixes the
// interleaving, so both the interleaved batch and every tenant's
// subsequence are pure functions of (graph, specs, seed).

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"
#include "src/util/types.hpp"

namespace pmte::serve {

enum class WorkloadKind { uniform, bfs_local, zipf };

struct WorkloadOptions {
  std::size_t pairs = 1000;
  unsigned bfs_hops = 3;        ///< ball radius of bfs_local, in hops
  std::size_t bfs_ball_cap = 256;  ///< stop growing a ball beyond this
  double zipf_s = 1.1;          ///< Zipf exponent (popularity skew)
};

/// Generate opts.pairs query pairs of the given shape, drawing only from
/// `rng` — deterministic for a fixed (graph, kind, opts, rng state).
/// Self-pairs (u == v) may occur; the serving layer answers them as 0.
[[nodiscard]] std::vector<std::pair<Vertex, Vertex>> make_workload(
    const Graph& g, WorkloadKind kind, const WorkloadOptions& opts, Rng& rng);

[[nodiscard]] const char* workload_name(WorkloadKind kind) noexcept;

// --- Multi-tenant interleaved streams --------------------------------------

/// Numeric tenant handle (dense, assigned by Server::add_tenant in order).
using TenantId = std::uint32_t;

/// One query of an interleaved multi-tenant stream.
struct TenantQuery {
  TenantId tenant = 0;
  Vertex u = 0;
  Vertex v = 0;
};

/// One tenant's substream inside an interleaved multi-tenant workload.
struct TenantStreamSpec {
  WorkloadKind kind = WorkloadKind::uniform;
  WorkloadOptions opts;
};

/// split_seed stream ids of the multi-tenant generator.  Streams ≥ 2³² are
/// reserved for non-tree consumers of a master seed (docs/ARCHITECTURE.md);
/// 2³² itself is the single-workload stream of serve_queries, tenant t
/// draws from kTenantWorkloadStreamBase + t, and the interleaving shuffle
/// from kTenantInterleaveStream — no consumer ever shares a stream.
inline constexpr std::uint64_t kTenantWorkloadStreamBase = std::uint64_t{1}
                                                           << 33;
inline constexpr std::uint64_t kTenantInterleaveStream =
    (std::uint64_t{1} << 33) - 1;

/// Interleaved multi-tenant query stream: tenant t's subsequence is
/// exactly make_workload(g, specs[t], Rng(split_seed(seed,
/// kTenantWorkloadStreamBase + t))) in order, and the positions of the
/// tenants in the merged stream are a Fisher–Yates shuffle of the tenant
/// tags drawn from kTenantInterleaveStream.  Total length = Σ
/// specs[t].opts.pairs.  Deterministic in (g, specs, seed); per-tenant
/// subsequences are independent of the other tenants' specs, so adding a
/// tenant never perturbs existing streams' queries (only their
/// interleaving).
[[nodiscard]] std::vector<TenantQuery> make_multi_tenant_workload(
    const Graph& g, const std::vector<TenantStreamSpec>& specs,
    std::uint64_t seed);

}  // namespace pmte::serve
