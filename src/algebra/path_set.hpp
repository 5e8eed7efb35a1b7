#pragma once
// The all-paths semiring Pmin,+ (Definition 3.17).
//
// An element stores a finite weight for every *contained* loop-free path
// (paths not contained are implicitly ∞).  Needed for problems that must
// distinguish different paths of equal weight — the k-Shortest Distance
// Problem and its distinct-weights variant (Section 3.3), which no
// semimodule over Smin,+ can express (Observation 3.16).
//
//   ⊕  pathwise minimum of weights,
//   ⊙  weight-summed concatenation over all concatenable splits,
//   0  the empty element (no paths),
//   1  all single-vertex paths (v) with weight 0.
//
// Because "1" is infinite as a set, elements carry a `has_trivial_paths`
// flag meaning "contains (v) with weight 0 for every v ∈ V"; the MBF-like
// machinery only ever multiplies by adjacency entries and unit vectors, for
// which this closure suffices (adjacency diagonals are exactly 1,
// Equation (3.18)).

#include <compare>
#include <span>
#include <vector>

#include "src/util/types.hpp"

namespace pmte {

/// A loop-free directed path as an explicit vertex tuple.
struct VertexPath {
  std::vector<Vertex> hops;

  [[nodiscard]] Vertex front() const { return hops.front(); }
  [[nodiscard]] Vertex back() const { return hops.back(); }
  [[nodiscard]] bool contains(Vertex v) const;

  friend auto operator<=>(const VertexPath&, const VertexPath&) = default;
};

struct PathEntry {
  VertexPath path;
  Weight weight;

  friend bool operator==(const PathEntry&, const PathEntry&) = default;
};

/// An element of Pmin,+ restricted to explicitly stored paths.
class PathSet {
 public:
  PathSet() = default;

  /// The semiring zero 0 = (∞, …, ∞).
  static PathSet zero() { return PathSet{}; }

  /// The semiring one 1 (all trivial paths at weight 0).
  static PathSet one() {
    PathSet p;
    p.has_trivial_ = true;
    return p;
  }

  /// {π ↦ w}; the adjacency entry a_vw = {(v,w) ↦ ω(v,w)} (Eq. 3.18) or
  /// the initialisation x⁽⁰⁾_v = {(v) ↦ 0} (Eq. 3.19).
  static PathSet single(VertexPath path, Weight w);

  [[nodiscard]] std::span<const PathEntry> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Weight of π in this element; ∞ if not contained.
  [[nodiscard]] Weight weight_of(const VertexPath& p) const;

  /// x ⊕ y (Equation (3.14)).
  [[nodiscard]] PathSet plus(const PathSet& other) const;

  /// x ⊙ y (Equation (3.15)); only loop-free concatenations are kept, as P
  /// contains loop-free paths only.
  [[nodiscard]] PathSet times(const PathSet& other) const;

  /// k-SDP filter (Equation (3.24)): for every start vertex v keep the k
  /// lightest v→target paths (ties broken lexicographically); everything
  /// else (including paths not ending at `target`) is dropped.
  /// `distinct_weights` switches to the k-DSDP variant (Example 3.24):
  /// at most one path per distinct weight.
  [[nodiscard]] PathSet filter_k_shortest(Vertex target, std::size_t k,
                                          bool distinct_weights = false) const;

  friend bool operator==(const PathSet&, const PathSet&) = default;

 private:
  void normalize();

  std::vector<PathEntry> entries_;  // sorted by path, unique, finite weights
  bool has_trivial_ = false;
};

}  // namespace pmte
