#pragma once
// The distance-map semimodule D (Definition 2.1).
//
// An element of D assigns a value of R≥0 ∪ {∞} to every vertex; we store
// only the finite entries as a vector of (key, dist) pairs sorted by key
// (the paper's "list of index–distance pairs", Lemma 2.3).  Keys are
// opaque 32-bit identifiers — plain vertex ids for source detection /
// APSP-style algorithms, *permutation ranks* for LE lists (so that the
// random order "u < v" is an integer comparison).
//
// Module operations:
//   ⊕  merge_min       — pointwise minimum (sorted merge)
//   s⊙ add_to_all      — uniform shift by the propagation distance
//   ⊥  the empty map   — all-∞ vector
// For LE lists, ⊕ followed by the filter r is merge_least_elements: one
// sorted merge that emits only the staircase.  An MBF round gathers all of
// a receiver's offers at once through gather_least_elements, which merges
// only the offered entries that beat the receiver's staircase.

#include <span>
#include <vector>

#include "src/parallel/counters.hpp"
#include "src/util/types.hpp"

namespace pmte {

/// One finite entry of a distance map.
struct DistEntry {
  Vertex key;
  Weight dist;

  friend bool operator==(const DistEntry&, const DistEntry&) = default;
};

/// Sparse distance map; invariant: entries sorted by strictly increasing
/// key, all distances finite.
class DistanceMap {
 public:
  DistanceMap() = default;

  /// {key ↦ d}; the typical MBF initialisation x⁽⁰⁾_v = unit vector at v.
  static DistanceMap singleton(Vertex key, Weight d = 0.0) {
    DistanceMap m;
    m.entries_.push_back(DistEntry{key, d});
    return m;
  }

  static DistanceMap from_entries(std::vector<DistEntry> entries);

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::span<const DistEntry> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const DistEntry& operator[](std::size_t i) const noexcept {
    return entries_[i];
  }

  /// Value at `key`; inf_weight() when absent.
  [[nodiscard]] Weight at(Vertex key) const noexcept;

  /// s ⊙ x : uniformly add `s` to all entries (Equation (2.7)).
  /// s = ∞ yields ⊥ (Equation (2.2)).
  void add_to_all(Weight s);

  /// x ⊕ y into *this (Equation (2.6)); `shift` adds a propagation distance
  /// to `other`'s entries on the fly, fusing s⊙y ⊕ x into one pass.
  void merge_min(const DistanceMap& other, Weight shift = 0.0);

  /// r(x ⊕ s⊙y) into *this, r the LE filter below: the same merge, but an
  /// entry is kept only if its distance is below every distance at a
  /// smaller key.  Neither input has to be an LE list.
  void merge_least_elements(const DistanceMap& other, Weight shift = 0.0);

  /// out = r(x ⊕ ⊕_i s_i⊙y_i) for the offers (y_i, s_i); returns whether
  /// that differs from x.  Every y_i must be an LE list (asserted in debug
  /// builds) and `out` must not be x.  When x is an LE list, as every
  /// engine state is, let f_x(k) be the dist of x's entry at the largest
  /// key ≤ k (∞ if none).  An offered entry (k, d) with d + s ≥ f_x(k) is
  /// dominated by x, or loses the minimum at its own key, so it cannot
  /// change the result (r is the projection of a congruence, Lemma 7.5 /
  /// Corollary 2.17).  A whole offer is skipped when its smallest distance
  /// plus s reaches f_x at its first key; otherwise every entry is tested.
  /// Each offer's run of entries that beat f_x is merged into a
  /// running-minimum list, which is then merged with x into `out`; there
  /// are such entries iff the result differs from x, and when there are
  /// none `out` is left unwritten.  Work is counted as |x| + |y_i| per
  /// offer.  A non-staircase x is filtered into a copy first, and the
  /// offers are gathered into that (r(x ⊕ y) = r(r(x) ⊕ y)); `out` is
  /// written either way.
  ///
  /// A non-empty `bound` (one weight per key) also drops every offered
  /// entry (k, d) with d ≥ bound[k]: an entry is kept only when d <
  /// min(f_x(k), bound[k]), in the whole-offer test and per entry alike.
  /// x's own entries are kept.  The oracle bounds its level runs this way
  /// (mbf_oracle.hpp, "Output-bounded level runs").
  static bool gather_least_elements(const DistanceMap& x,
                                    std::span<const Offer<DistanceMap>> offers,
                                    DistanceMap& out,
                                    std::span<const Weight> bound = {});

  /// *this = the entries of `now` that are not entries of `before`: a key
  /// of `now` stays unless `before` holds it at the same distance.  This
  /// is what a vertex has to offer again after its state went from
  /// `before` to `now`, since now ⊕ before = (now ∖ before) ⊕ before.
  void assign_difference(const DistanceMap& now, const DistanceMap& before);

  /// Remove all entries with dist > bound (used by distance-bounded
  /// filters; ⊥-preserving).
  void drop_beyond(Weight bound);

  /// Remove every entry (k, d) with d ≥ bound[k] (`bound` holds one weight
  /// per key); a staircase stays one.
  void drop_at_or_above(std::span<const Weight> bound);

  /// Keep the k smallest entries under lexicographic (dist, key) order —
  /// the source-detection filter core (Example 3.2).  k = 0 yields ⊥.
  void keep_k_smallest(std::size_t k);

  /// Keep only entries whose key is *not dominated*: entry (key, dist) is
  /// dominated iff some other entry (key', dist') has key' < key and
  /// dist' <= dist.  This is the LE-list filter r of Definition 7.3.
  /// Lemma 7.7's tournament over the rank order is one pass here: the map
  /// is sorted by key, so an entry survives iff its distance is below the
  /// running minimum of the entries before it.
  /// Postcondition: sorted by key ascending ⇔ dist descending (staircase).
  void keep_least_elements();

  /// True iff no entry is dominated (LE staircase invariant).
  [[nodiscard]] bool is_least_element_list() const noexcept;

  void clear() noexcept { entries_.clear(); }

  friend bool operator==(const DistanceMap&, const DistanceMap&) = default;

 private:
  std::vector<DistEntry> entries_;
};

}  // namespace pmte
