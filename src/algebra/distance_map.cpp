#include "src/algebra/distance_map.hpp"

#include <algorithm>
#include <cmath>

#include "src/parallel/parallel.hpp"  // PMTE_TSAN_ACTIVE
#include "src/util/assertions.hpp"

namespace pmte {

DistanceMap DistanceMap::from_entries(std::vector<DistEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const DistEntry& a, const DistEntry& b) {
              return a.key < b.key || (a.key == b.key && a.dist < b.dist);
            });
  DistanceMap m;
  m.entries_.reserve(entries.size());
  for (const auto& e : entries) {
    if (!is_finite(e.dist)) continue;  // ∞ entries are implicit
    if (!m.entries_.empty() && m.entries_.back().key == e.key) continue;
    m.entries_.push_back(e);
  }
  return m;
}

Weight DistanceMap::at(Vertex key) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const DistEntry& e, Vertex k) { return e.key < k; });
  if (it != entries_.end() && it->key == key) return it->dist;
  return inf_weight();
}

void DistanceMap::add_to_all(Weight s) {
  if (!is_finite(s)) {
    entries_.clear();  // ∞ ⊙ x = ⊥  (2.2)
    return;
  }
  for (auto& e : entries_) e.dist += s;
  WorkDepth::add_work(entries_.size());
}

namespace {

// x ⊕ s⊙y into `x` by one ascending-key merge that takes the minimum at
// equal keys; `keep(e)` decides, in key order, which merged entries stay.
template <class Keep>
void merge_into(std::vector<DistEntry>& x, const std::vector<DistEntry>& y,
                Weight shift, Keep keep) {
  WorkDepth::add_work(x.size() + y.size());
  // The merge is the innermost operation of every MBF-like iteration; a
  // thread-local scratch buffer avoids an allocation per relaxation.
  thread_local std::vector<DistEntry> scratch;
  scratch.clear();
  scratch.reserve(x.size() + y.size());
  const auto emit = [&](const DistEntry& e) {
    if (keep(e)) scratch.push_back(e);
  };
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    const auto& a = x[i];
    const DistEntry b{y[j].key, y[j].dist + shift};
    if (a.key < b.key) {
      emit(a);
      ++i;
    } else if (b.key < a.key) {
      emit(b);
      ++j;
    } else {
      emit(DistEntry{a.key, std::min(a.dist, b.dist)});
      ++i;
      ++j;
    }
  }
  for (; i < x.size(); ++i) emit(x[i]);
  for (; j < y.size(); ++j) emit(DistEntry{y[j].key, y[j].dist + shift});
#if PMTE_TSAN_ACTIVE
  // swap() would hand the map a buffer allocated by this worker thread and
  // park the map's old buffer in this thread's TLS, where the TLS destructor
  // frees it at thread exit — a cross-thread handoff whose ordering runs
  // through OpenMP pool teardown, which TSan cannot see.  Copying keeps
  // buffer ownership with the map (same values, one extra memcpy).
  x.assign(scratch.begin(), scratch.end());
#else
  x.swap(scratch);  // scratch keeps its capacity for the next merge
#endif
}

// True iff r(x ⊕ s⊙y) = x: x is a staircase and every y entry (k, d) has
// an x entry at the largest key ≤ k whose dist is ≤ d + s.  Such a y entry
// is then dominated, or loses the minimum at its own key, and no x entry
// is dominated.  Both passes count instead of branching per entry; the
// only data-dependent exits are a failed staircase and the first undercut.
bool absorbs(const std::vector<DistEntry>& x, const std::vector<DistEntry>& y,
             Weight shift) {
  if (x.size() > DistanceMap::kAbsorbProbeMaxEntries) return false;
  bool staircase = true;
  for (std::size_t i = 1; i < x.size(); ++i) {
    staircase &= x[i].dist < x[i - 1].dist;
  }
  if (!staircase) return false;
  for (const auto& e : y) {
    std::size_t at_or_below = 0;
    for (const auto& f : x) at_or_below += f.key <= e.key ? 1 : 0;
    if (at_or_below == 0 || x[at_or_below - 1].dist > e.dist + shift) {
      return false;
    }
  }
  return true;
}

}  // namespace

void DistanceMap::merge_min(const DistanceMap& other, Weight shift) {
  if (!is_finite(shift) || other.empty()) return;
  merge_into(entries_, other.entries_, shift,
             [](const DistEntry&) { return true; });
}

void DistanceMap::merge_least_elements(const DistanceMap& other,
                                       Weight shift) {
  if (!is_finite(shift) || other.empty()) {
    keep_least_elements();  // r(x ⊕ ⊥) = r(x)
    return;
  }
  if (absorbs(entries_, other.entries_, shift)) {
    WorkDepth::add_work(entries_.size() + other.size());  // as merged
    return;
  }
  Weight min_dist = inf_weight();
  merge_into(entries_, other.entries_, shift, [&min_dist](const DistEntry& e) {
    if (e.dist >= min_dist) return false;
    min_dist = e.dist;
    return true;
  });
}

void DistanceMap::assign_difference(const DistanceMap& now,
                                    const DistanceMap& before) {
  WorkDepth::add_work(now.size() + before.size());
  entries_.clear();
  std::size_t j = 0;
  for (const auto& e : now.entries_) {
    while (j < before.size() && before.entries_[j].key < e.key) ++j;
    if (j == before.size() || before.entries_[j] != e) entries_.push_back(e);
  }
}

void DistanceMap::drop_beyond(Weight bound) {
  std::erase_if(entries_,
                [bound](const DistEntry& e) { return e.dist > bound; });
}

void DistanceMap::keep_k_smallest(std::size_t k) {
  if (entries_.size() <= k) return;
  if (k == 0) {
    entries_.clear();
    return;
  }
  WorkDepth::add_work(entries_.size());
  std::vector<DistEntry> by_dist(entries_.begin(), entries_.end());
  std::nth_element(by_dist.begin(), by_dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   by_dist.end(), [](const DistEntry& a, const DistEntry& b) {
                     return a.dist < b.dist ||
                            (a.dist == b.dist && a.key < b.key);
                   });
  const DistEntry pivot = by_dist[k - 1];
  std::erase_if(entries_, [&pivot](const DistEntry& e) {
    return e.dist > pivot.dist ||
           (e.dist == pivot.dist && e.key > pivot.key);
  });
}

void DistanceMap::keep_least_elements() {
  if (entries_.size() <= 1) return;
  WorkDepth::add_work(entries_.size());
  Weight min_dist = inf_weight();
  std::size_t kept = 0;
  for (const auto& e : entries_) {
    if (e.dist < min_dist) {
      min_dist = e.dist;
      entries_[kept++] = e;
    }
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(kept),
                 entries_.end());
}

bool DistanceMap::is_least_element_list() const noexcept {
  // Sorted by ascending key; LE lists additionally have strictly
  // *descending* distance along ascending key (the staircase).
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i - 1].key >= entries_[i].key) return false;
    if (entries_[i - 1].dist <= entries_[i].dist) return false;
  }
  return true;
}

bool approx_equal(const DistanceMap& a, const DistanceMap& b,
                  double rel_tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key) return false;
    const double scale = std::max({1.0, std::abs(a[i].dist), std::abs(b[i].dist)});
    if (std::abs(a[i].dist - b[i].dist) > rel_tol * scale) return false;
  }
  return true;
}

}  // namespace pmte
