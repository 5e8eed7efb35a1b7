#include "src/apps/kmedian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/graph/shortest_paths.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

double kmedian_cost(const Graph& g, const std::vector<Vertex>& centers) {
  PMTE_CHECK(!centers.empty(), "k-median cost needs at least one center");
  const auto ms = multi_source_dijkstra(g, centers);
  double total = 0.0;
  for (Weight d : ms.dist) {
    PMTE_CHECK(is_finite(d), "disconnected client in k-median objective");
    total += d;
  }
  return total;
}

KMedianResult kmedian_random(const Graph& g, std::size_t k, Rng& rng) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(k >= 1 && k <= n, "k out of range");
  auto perm = random_permutation(n, rng);
  KMedianResult r;
  r.centers.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(k));
  r.cost = kmedian_cost(g, r.centers);
  return r;
}

KMedianResult kmedian_local_search(const Graph& g, std::size_t k,
                                   unsigned max_rounds, Rng& rng) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(k >= 1 && k <= n, "k out of range");
  KMedianResult r = kmedian_random(g, k, rng);
  // Single-swap local search; candidate insertions are sampled to keep the
  // baseline tractable on larger instances.
  const std::size_t swap_candidates = std::min<std::size_t>(n, 64);
  for (unsigned round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (std::size_t ci = 0; ci < r.centers.size(); ++ci) {
      std::vector<Vertex> trial = r.centers;
      double best_cost = r.cost;
      Vertex best_swap = no_vertex();
      std::vector<double> costs(swap_candidates, inf_weight());
      std::vector<Vertex> cands(swap_candidates);
      for (std::size_t t = 0; t < swap_candidates; ++t) {
        cands[t] = static_cast<Vertex>(rng.below(n));
      }
      parallel_for(swap_candidates, [&](std::size_t t) {
        const Vertex cand = cands[t];
        if (std::find(trial.begin(), trial.end(), cand) != trial.end()) return;
        auto attempt = trial;
        attempt[ci] = cand;
        costs[t] = kmedian_cost(g, attempt);
      });
      for (std::size_t t = 0; t < swap_candidates; ++t) {
        if (costs[t] < best_cost) {
          best_cost = costs[t];
          best_swap = cands[t];
        }
      }
      if (best_swap != no_vertex() && best_cost < r.cost * (1.0 - 1e-6)) {
        r.centers[ci] = best_swap;
        r.cost = best_cost;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return r;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Condensed HST: unary chains of the FRT tree are contracted, keeping
/// leaves, branching nodes and the root.  Divergence levels (and therefore
/// leaf-to-leaf distances) are preserved because the LCA of two leaves is
/// always a branching node.
struct CondensedTree {
  struct Node {
    unsigned level = 0;                 // original FRT level
    std::vector<std::uint32_t> children;
    Vertex leaf_vertex = no_vertex();   // tree-local vertex for leaves
  };
  std::vector<Node> nodes;  // nodes[0] is the root; children after parents
  std::vector<double> div_dist;  // div_dist[s] = leaf-leaf distance with
                                 // LCA at level s; last slot = ∞ sentinel
};

/// Condense the flat index's tree top-down (explicit stack, CSR children
/// pushed in ascending id order, popped LIFO); the walk order fixes the
/// condensed child order and hence the DP's fold order.  Every visited
/// node costs one children() read, counted as a tree_lookup.
CondensedTree condense(const serve::FrtIndex& index,
                       AppQueryCounters& counters) {
  const unsigned levels = index.num_levels();
  CondensedTree ct;
  ct.div_dist.assign(levels + 1, 0.0);
  for (unsigned s = 1; s < levels; ++s) {
    ct.div_dist[s] = ct.div_dist[s - 1] + 2.0 * index.edge_weight(s - 1);
  }
  ct.div_dist[levels] = kInf;  // "no external facility"

  // Map FRT nodes to condensed ids, walking top-down; a node is kept if it
  // is the root, a leaf, or has ≥ 2 children.
  constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  struct Item {
    serve::FrtIndex::NodeId frt;
    std::uint32_t parent;  // condensed parent
  };
  std::vector<Item> stack{{index.root(), kNoParent}};
  while (!stack.empty()) {
    const auto [id, parent] = stack.back();
    stack.pop_back();
    ++counters.tree_lookups;
    const auto children = index.children(id);
    const Vertex leaf = index.leaf_vertex(id);
    std::uint32_t next_parent = parent;
    if (parent == kNoParent || children.size() >= 2 || leaf != no_vertex()) {
      next_parent = static_cast<std::uint32_t>(ct.nodes.size());
      ct.nodes.push_back({index.level(id), {}, leaf});
      if (parent != kNoParent) ct.nodes[parent].children.push_back(next_parent);
    }
    for (const auto c : children) stack.push_back(Item{c, next_parent});
  }
  return ct;
}

/// Exact weighted k-median DP on the condensed HST.  dp[v][j][s] = optimal
/// cost of subtree(v) with j facilities opened inside and the nearest
/// *external* facility diverging from v's leaves at level s (s = levels ⇒
/// none).
class TreeDp {
 public:
  TreeDp(const CondensedTree& ct, const std::vector<double>& leaf_weight,
         std::size_t k)
      : ct_(ct), weight_(leaf_weight), k_(k), slots_(ct.div_dist.size()) {
    dp_.resize(ct.nodes.size());
    for (std::uint32_t v = static_cast<std::uint32_t>(ct.nodes.size()); v-- > 0;) {
      compute(v);
    }
  }

  [[nodiscard]] double best_cost() const {
    const auto& root = dp_[0];
    double best = kInf;
    for (std::size_t j = 0; j <= k_; ++j) {
      best = std::min(best, root[index(j, slots_ - 1)]);
    }
    return best;
  }

  void collect_centers(std::vector<Vertex>& out) const {
    const auto& root = dp_[0];
    std::size_t best_j = 0;
    double best = kInf;
    for (std::size_t j = 0; j <= k_; ++j) {
      const double c = root[index(j, slots_ - 1)];
      if (c < best) {
        best = c;
        best_j = j;
      }
    }
    backtrack(0, best_j, slots_ - 1, out);
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t j, std::size_t s) const {
    return j * slots_ + s;
  }

  [[nodiscard]] double leaf_cost(std::uint32_t v, std::size_t j,
                                 std::size_t s) const {
    if (j == 0) return weight_[ct_.nodes[v].leaf_vertex] * ct_.div_dist[s];
    if (j == 1) return 0.0;
    return kInf;
  }

  void compute(std::uint32_t v) {
    const auto& nd = ct_.nodes[v];
    auto& table = dp_[v];
    table.assign((k_ + 1) * slots_, kInf);
    if (nd.children.empty()) {
      for (std::size_t j = 0; j <= k_; ++j) {
        for (std::size_t s = 0; s < slots_; ++s) {
          table[index(j, s)] = leaf_cost(v, j, s);
        }
      }
      return;
    }
    const std::size_t ell = nd.level;  // divergence level inside v
    // Knapsack over children with every child priced at divergence ℓ;
    // count ∈ {0,1,2} tracks how many children hold facilities (2 = "≥2").
    std::vector<double> knap((k_ + 1) * 3, kInf);
    knap[0 * 3 + 0] = 0.0;
    for (const auto c : nd.children) {
      std::vector<double> next((k_ + 1) * 3, kInf);
      for (std::size_t j = 0; j <= k_; ++j) {
        for (int cnt = 0; cnt < 3; ++cnt) {
          const double base = knap[j * 3 + cnt];
          if (base == kInf) continue;
          for (std::size_t jc = 0; j + jc <= k_; ++jc) {
            const double child_cost = dp_[c][index(jc, ell)];
            if (child_cost == kInf) continue;
            const int ncnt = std::min(2, cnt + (jc > 0 ? 1 : 0));
            auto& slot = next[(j + jc) * 3 + ncnt];
            slot = std::min(slot, base + child_cost);
          }
        }
      }
      knap = std::move(next);
    }
    // T0 = Σ_t dp[c_t][0][ℓ] for the single-carrier option.
    double t0 = 0.0;
    for (const auto c : nd.children) t0 += dp_[c][index(0, ell)];
    for (std::size_t s = 0; s < slots_; ++s) {
      // j = 0: every child serves externally at divergence s.
      double all_zero = 0.0;
      for (const auto c : nd.children) {
        const double cc = dp_[c][index(0, s)];
        all_zero = cc == kInf ? kInf : all_zero + cc;
        if (all_zero == kInf) break;
      }
      table[index(0, s)] = all_zero;
      for (std::size_t j = 1; j <= k_; ++j) {
        double best = knap[j * 3 + 2];  // ≥ 2 carrier children
        for (const auto c : nd.children) {
          // Single carrier child c: it still sees the external facility at
          // divergence s; its siblings see the carrier at divergence ℓ.
          const double carrier = dp_[c][index(j, s)];
          const double zero_at_ell = dp_[c][index(0, ell)];
          if (carrier == kInf || t0 == kInf || zero_at_ell == kInf) continue;
          best = std::min(best, carrier + (t0 - zero_at_ell));
        }
        table[index(j, s)] = best;
      }
    }
  }

  void backtrack(std::uint32_t v, std::size_t j, std::size_t s,
                 std::vector<Vertex>& out) const {
    const auto& nd = ct_.nodes[v];
    if (nd.children.empty()) {
      if (j >= 1) out.push_back(nd.leaf_vertex);
      return;
    }
    const double target = dp_[v][index(j, s)];
    if (target == kInf) return;
    const std::size_t ell = nd.level;
    if (j == 0) {
      for (const auto c : nd.children) backtrack(c, 0, s, out);
      return;
    }
    // Single-carrier option?
    double t0 = 0.0;
    for (const auto c : nd.children) t0 += dp_[c][index(0, ell)];
    for (const auto c : nd.children) {
      const double carrier = dp_[c][index(j, s)];
      const double zero_at_ell = dp_[c][index(0, ell)];
      if (carrier == kInf || zero_at_ell == kInf) continue;
      if (carrier + (t0 - zero_at_ell) <= target * (1 + 1e-12) + 1e-12) {
        backtrack(c, j, s, out);
        for (const auto t : nd.children) {
          if (t != c) backtrack(t, 0, ell, out);
        }
        return;
      }
    }
    // Otherwise a ≥2 split: peel children greedily against the knapsack.
    // Recompute suffix knapsacks to identify a consistent split.
    const std::size_t r = nd.children.size();
    // suffix[i] = knapsack over children[i..r) priced at ℓ.
    std::vector<std::vector<double>> suffix(r + 1);
    suffix[r].assign((k_ + 1) * 3, kInf);
    suffix[r][0] = 0.0;
    for (std::size_t i = r; i-- > 0;) {
      suffix[i].assign((k_ + 1) * 3, kInf);
      const auto c = nd.children[i];
      for (std::size_t jj = 0; jj <= k_; ++jj) {
        for (int cnt = 0; cnt < 3; ++cnt) {
          const double base = suffix[i + 1][jj * 3 + cnt];
          if (base == kInf) continue;
          for (std::size_t jc = 0; jj + jc <= k_; ++jc) {
            const double cc = dp_[c][index(jc, ell)];
            if (cc == kInf) continue;
            const int ncnt = std::min(2, cnt + (jc > 0 ? 1 : 0));
            auto& slot = suffix[i][(jj + jc) * 3 + ncnt];
            slot = std::min(slot, base + cc);
          }
        }
      }
    }
    std::size_t rem_j = j;
    int rem_cnt = 2;
    double rem_cost = suffix[0][rem_j * 3 + rem_cnt];
    PMTE_ASSERT(rem_cost < kInf, "knapsack backtrack inconsistent");
    for (std::size_t i = 0; i < r; ++i) {
      const auto c = nd.children[i];
      bool advanced = false;
      for (std::size_t jc = 0; jc <= rem_j && !advanced; ++jc) {
        const double cc = dp_[c][index(jc, ell)];
        if (cc == kInf) continue;
        // Count still needed from the remaining suffix.
        for (int need = 0; need < 3 && !advanced; ++need) {
          if (std::min(2, need + (jc > 0 ? 1 : 0)) != rem_cnt &&
              !(rem_cnt == 2 && std::min(2, need + (jc > 0 ? 1 : 0)) >= 2)) {
            continue;
          }
          const double tail = suffix[i + 1][(rem_j - jc) * 3 + need];
          if (tail == kInf) continue;
          if (cc + tail <= rem_cost * (1 + 1e-12) + 1e-12) {
            backtrack(c, jc, ell, out);
            rem_j -= jc;
            rem_cnt = need;
            rem_cost = tail;
            advanced = true;
          }
        }
      }
      PMTE_ASSERT(advanced, "knapsack backtrack failed to advance");
    }
  }

  const CondensedTree& ct_;
  const std::vector<double>& weight_;
  std::size_t k_;
  std::size_t slots_;
  std::vector<std::vector<double>> dp_;
};

}  // namespace

TreeKMedian solve_kmedian_on_index(const serve::FrtIndex& index,
                                   const std::vector<double>& leaf_weight,
                                   std::size_t k) {
  PMTE_CHECK(leaf_weight.size() == index.num_leaves(),
             "leaf weight count mismatch");
  PMTE_CHECK(k >= 1, "k must be positive");
  TreeKMedian out;
  const auto ct = condense(index, out.counters);
  TreeDp dp(ct, leaf_weight, std::min<std::size_t>(k, index.num_leaves()));
  out.cost = dp.best_cost();
  dp.collect_centers(out.centers);
  PMTE_CHECK(!out.centers.empty() && out.centers.size() <= k,
             "tree DP produced an invalid center set");
  return out;
}

KMedianResult kmedian_frt(const Graph& g, std::size_t k,
                          const KMedianOptions& opts, Rng& rng) {
  const Vertex n = g.num_vertices();
  PMTE_CHECK(k >= 1 && k <= n, "k out of range");

  // (1) Successive sampling (Mettu–Plaxton style): halve the candidate pool
  // per round, keeping everything sampled along the way.
  std::vector<Vertex> pool(n);
  for (Vertex v = 0; v < n; ++v) pool[v] = v;
  std::vector<Vertex> candidates;
  const std::size_t per_round = std::max<std::size_t>(
      opts.min_candidates,
      static_cast<std::size_t>(std::ceil(opts.candidate_factor * k)));
  while (pool.size() > per_round) {
    shuffle(pool.begin(), pool.end(), rng);
    std::vector<Vertex> sampled(pool.begin(),
                                pool.begin() + static_cast<std::ptrdiff_t>(per_round));
    candidates.insert(candidates.end(), sampled.begin(), sampled.end());
    // Distance of every pool vertex to the sampled set; drop the closest
    // half (they are well-served by existing candidates).
    const auto ms = multi_source_dijkstra(g, sampled);
    std::sort(pool.begin(), pool.end(), [&](Vertex a, Vertex b) {
      return ms.dist[a] > ms.dist[b];
    });
    pool.resize(pool.size() / 2);
  }
  candidates.insert(candidates.end(), pool.begin(), pool.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  PMTE_CHECK(candidates.size() >= k, "candidate sampling lost too many");

  // (2) Client weights: every vertex attaches to its closest candidate.
  const auto owners = multi_source_dijkstra(g, candidates);
  std::vector<double> weight(candidates.size(), 0.0);
  std::vector<Vertex> cand_index(n, no_vertex());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    cand_index[candidates[i]] = static_cast<Vertex>(i);
  }
  for (Vertex v = 0; v < n; ++v) {
    PMTE_CHECK(owners.owner[v] != no_vertex(), "graph must be connected");
    weight[cand_index[owners.owner[v]]] += 1.0;
  }

  // Submetric on the candidates (|Q| Dijkstras, |Q| ∈ O(k log(n/k))).
  const auto q = static_cast<Vertex>(candidates.size());
  std::vector<Weight> sub(static_cast<std::size_t>(q) * q, inf_weight());
  std::vector<std::vector<Weight>> cand_dist(q);
  parallel_for(q, [&](std::size_t i) {
    cand_dist[i] = dijkstra(g, candidates[i]).dist;
  });
  Weight sub_min = inf_weight();
  for (Vertex i = 0; i < q; ++i) {
    for (Vertex j = 0; j < q; ++j) {
      const Weight d = cand_dist[i][candidates[j]];
      sub[static_cast<std::size_t>(i) * q + j] = d;
      if (i != j && d > 0.0) sub_min = std::min(sub_min, d);
    }
  }
  if (!is_finite(sub_min)) sub_min = 1.0;  // single candidate: any hint works

  // (3) FRT trees over the submetric; DP; evaluate on the graph objective.
  KMedianResult best;
  best.cost = inf_weight();
  best.candidates = candidates.size();
  for (std::size_t t = 0; t < std::max<std::size_t>(opts.trees, 1); ++t) {
    const double beta = sample_beta(rng);
    auto order = VertexOrder::random(q, rng);
    auto le = le_lists_from_metric(sub, order);
    const auto index = serve::FrtIndex::build(
        FrtTree::build(le.lists, order, beta, sub_min));
    auto sol = solve_kmedian_on_index(index, weight, k);
    best.counters += sol.counters;
    std::vector<Vertex> centers;
    centers.reserve(sol.centers.size());
    for (Vertex c : sol.centers) centers.push_back(candidates[c]);
    const double cost = kmedian_cost(g, centers);
    if (cost < best.cost) {
      best.cost = cost;
      best.centers = std::move(centers);
      best.tree_cost = sol.cost;
    }
  }
  return best;
}

}  // namespace pmte
