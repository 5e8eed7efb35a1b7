#pragma once
// Concrete MBF-like algebras: the policy objects plugged into MbfEngine /
// mbf_run.  Each corresponds to one of the paper's example instantiations
// (Section 3) or to the LE-list algorithm (Section 7, see src/frt).

#include <algorithm>
#include <vector>

#include "src/algebra/distance_map.hpp"
#include "src/algebra/path_set.hpp"
#include "src/algebra/semiring.hpp"
#include "src/algebra/width_map.hpp"
#include "src/mbf/engine.hpp"
#include "src/util/types.hpp"

namespace pmte {

/// M = Smin,+ viewed as a semimodule over itself: plain scalar distances.
/// With a distance cap this is the anonymous "forest fire" detector of
/// Example 3.7; with cap = ∞ it is single-source MBF (Example 3.3).
struct ScalarDistanceAlgebra {
  using State = Weight;

  Weight cap = inf_weight();  ///< filter: discard states beyond this radius

  [[nodiscard]] State bottom() const { return inf_weight(); }

  void relax(State& acc, Weight w, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    acc = MinPlus::plus(acc, MinPlus::times(w, x_from));
    WorkDepth::add_work(1);
  }

  void aggregate(State& acc, const State& y) const {
    acc = MinPlus::plus(acc, y);
  }

  void filter(State& x) const {
    if (x > cap) x = inf_weight();
  }

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

/// M = D over Smin,+ with the source-detection filter (Example 3.2):
/// keep at most k entries, each within distance `max_dist`, smallest
/// (dist, key) first.  k = n, max_dist = ∞ degenerates to plain
/// multi-source distance maps: APSP (Ex. 3.5), k-SSP (Ex. 3.4),
/// MSSP (Ex. 3.6) are parametrisations of this algebra.
struct SourceDetectionAlgebra {
  using State = DistanceMap;

  std::size_t k = static_cast<std::size_t>(-1);
  Weight max_dist = inf_weight();

  [[nodiscard]] State bottom() const { return DistanceMap{}; }

  void relax(State& acc, Weight w, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    acc.merge_min(x_from, w);
  }

  void aggregate(State& acc, const State& y) const { acc.merge_min(y); }

  void filter(State& x) const {
    if (is_finite(max_dist)) x.drop_beyond(max_dist);
    x.keep_k_smallest(k);
  }

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

/// M = W over Smax,min: widest paths (Section 3.2, Examples 3.13–3.15).
struct WidestPathAlgebra {
  using State = WidthMap;

  [[nodiscard]] State bottom() const { return WidthMap{}; }

  void relax(State& acc, Weight w, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    acc.merge_max(x_from, w);
    WorkDepth::add_work(x_from.size() + 1);
  }

  void aggregate(State& acc, const State& y) const { acc.merge_max(y); }

  void filter(State& /*x*/) const {}

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

/// M = B^V over the Boolean semiring: h-hop reachability (Example 3.25).
/// States are sorted vertex sets.
struct ReachabilityAlgebra {
  using State = std::vector<Vertex>;  // sorted set of reached sources

  [[nodiscard]] State bottom() const { return {}; }

  void relax(State& acc, Weight /*w*/, Vertex /*from*/, Vertex /*to*/,
             const State& x_from) const {
    // acc ∨= x_from  (edge weight plays no role over B)
    State merged;
    merged.reserve(acc.size() + x_from.size());
    std::set_union(acc.begin(), acc.end(), x_from.begin(), x_from.end(),
                   std::back_inserter(merged));
    acc = std::move(merged);
    WorkDepth::add_work(acc.size());
  }

  void aggregate(State& acc, const State& y) const {
    relax(acc, 0.0, 0, 0, y);
  }

  void filter(State& /*x*/) const {}

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

/// M = Pmin,+ over itself with the k-SDP / k-DSDP filter (Section 3.3,
/// Examples 3.23–3.24).  Exponential without filtering — the filter is what
/// makes it tractable, exactly the framework's point.
struct KsdpAlgebra {
  using State = PathSet;

  Vertex target = 0;
  std::size_t k = 1;
  bool distinct_weights = false;

  [[nodiscard]] State bottom() const { return PathSet::zero(); }

  void relax(State& acc, Weight w, Vertex from, Vertex to,
             const State& x_from) const {
    // a_{to,from} = {(to,from) ↦ w}  (Equation (3.18))
    const PathSet edge = PathSet::single(VertexPath{{to, from}}, w);
    acc = acc.plus(edge.times(x_from));
    WorkDepth::add_work(x_from.size() + 1);
  }

  void aggregate(State& acc, const State& y) const { acc = acc.plus(y); }

  void filter(State& x) const {
    x = x.filter_k_shortest(target, k, distinct_weights);
  }

  [[nodiscard]] bool equal(const State& a, const State& b) const {
    return a == b;
  }
};

static_assert(MbfAlgebra<ScalarDistanceAlgebra>);
static_assert(MbfAlgebra<SourceDetectionAlgebra>);
static_assert(MbfAlgebra<WidestPathAlgebra>);
static_assert(MbfAlgebra<ReachabilityAlgebra>);
static_assert(MbfAlgebra<KsdpAlgebra>);

}  // namespace pmte
