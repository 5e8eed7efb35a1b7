#include "src/algebra/distance_map.hpp"

#include <algorithm>

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

// x ⊕ s⊙y appended to `out` by one ascending-key merge that takes the
// minimum at equal keys; `keep(e)` decides, in key order, which merged
// entries stay.
template <class Keep>
void merge_to(std::span<const DistEntry> x, std::span<const DistEntry> y,
              Weight shift, Keep keep, std::vector<DistEntry>& out) {
  const auto emit = [&](const DistEntry& e) {
    if (keep(e)) out.push_back(e);
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
}

// x ⊕ s⊙y into `x` through merge_to.
template <class Keep>
void merge_into(std::vector<DistEntry>& x, const std::vector<DistEntry>& y,
                Weight shift, Keep keep) {
  WorkDepth::add_work(x.size() + y.size());
  // The merge is the innermost operation of every MBF-like iteration; a
  // thread-local scratch buffer avoids an allocation per relaxation.
  thread_local std::vector<DistEntry> scratch;
  scratch.clear();
  scratch.reserve(x.size() + y.size());
  merge_to(x, y, shift, keep, scratch);
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

// The LE filter r as a merge's keep(): an entry stays iff its distance is
// below every distance at a smaller key.
struct BelowRunningMin {
  Weight min_dist = inf_weight();
  bool operator()(const DistEntry& e) {
    if (e.dist >= min_dist) return false;
    min_dist = e.dist;
    return true;
  }
};

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
  merge_into(entries_, other.entries_, shift, BelowRunningMin{});
}

bool DistanceMap::gather_least_elements(
    const DistanceMap& x, std::span<const Offer<DistanceMap>> offers,
    DistanceMap& out, std::span<const Weight> bound) {
  PMTE_ASSERT(&out != &x, "gather_least_elements: out must not be x");
  const auto& xs = x.entries_;
  const std::size_t m = xs.size();
  // x's keys, contiguous so that counting the keys ≤ k is branch-free,
  // and f[c] = f_x(k) for a key k with c keys of x at or below it.
  thread_local std::vector<Vertex> keys;
  thread_local std::vector<Weight> f;
  keys.resize(m);
  f.resize(m + 1);
  f[0] = inf_weight();
  bool staircase = true;
  for (std::size_t i = 0; i < m; ++i) {
    keys[i] = xs[i].key;
    f[i + 1] = xs[i].dist;
    staircase &= xs[i].dist < f[i];
  }
  if (!staircase) {
    DistanceMap filtered = x;
    filtered.keep_least_elements();
    if (!gather_least_elements(filtered, offers, out, bound)) {
      out = std::move(filtered);
    }
    return true;
  }
  const auto f_x = [&](Vertex k) {
    Vertex at_or_below = 0;
    for (std::size_t i = 0; i < m; ++i) at_or_below += keys[i] <= k ? 1 : 0;
    return f[at_or_below];
  };
  // What an offered entry at key k must stay below, given f = f_x(k).
  const auto limit = [&](Vertex k, Weight f_k) {
    return bound.empty() ? f_k : std::min(f_k, bound[k]);
  };

  // The offered entries that beat x's staircase and the bound.  Per offer
  // they are collected into beat[0, n), where every entry writes its slot
  // and only a beating one advances n.  Each offer's entries arrive sorted
  // by key, so `found` takes them by a running-minimum merge: it holds r(C)
  // for the entries C so far, and r(x ⊕ C) = r(x ⊕ r(C)).
  thread_local std::vector<DistEntry> beat, found, merged;
  found.clear();
  std::uint64_t work = 0;
  for (const auto& o : offers) {
    const auto& ys = o.state->entries_;
    PMTE_ASSERT(o.state->is_least_element_list(),
                "gather_least_elements: an offer is not an LE list");
    PMTE_ASSERT(bound.empty() || ys.empty() || ys.back().key < bound.size(),
                "gather_least_elements: a key past the bound");
    work += m + ys.size();
    // y's last entry has its smallest distance and the limit falls with the
    // key, so this one test covers the whole offer.
    if (ys.empty() || ys.back().dist + o.shift >=
                          limit(ys.front().key, f_x(ys.front().key))) {
      continue;
    }
    if (beat.size() < ys.size()) beat.resize(ys.size());
    std::size_t n = 0;
    // A count costs |x| compares per entry, which the compiler vectorizes;
    // a walk up both lists costs |x| + |y| dependent steps.  The walk is
    // here only to keep the test linear in |x| + |y|: it takes over where
    // |x|·|y| reaches 8(|x| + |y|), both lists about 16 entries long, and
    // in the lifecycle builds it tests under 0.1% of the offers.
    if (m * ys.size() < 8 * (m + ys.size())) {
      for (const auto& e : ys) {
        const Weight d = e.dist + o.shift;
        beat[n] = DistEntry{e.key, d};
        n += d < limit(e.key, f_x(e.key)) ? 1 : 0;
      }
    } else {
      // Each step passes an x key at or below the current y key, or tests
      // that entry against f[c], c the number of x keys passed.
      std::size_t c = 0, j = 0;
      while (j < ys.size()) {
        const bool pass = c < m && keys[c] <= ys[j].key;
        const Weight d = ys[j].dist + o.shift;
        beat[n] = DistEntry{ys[j].key, d};
        n += !pass && d < limit(ys[j].key, f[c]) ? 1 : 0;
        c += pass ? 1 : 0;
        j += pass ? 0 : 1;
      }
    }
    const std::span<const DistEntry> run(beat.data(), n);
    if (found.empty()) {
      found.assign(run.begin(), run.end());
    } else if (n > 0) {
      merged.clear();
      merge_to(found, run, 0.0, BelowRunningMin{}, merged);
      found.swap(merged);
    }
  }
  WorkDepth::add_work(work);
  if (found.empty()) return false;
  out.entries_.clear();
  merge_to(xs, found, 0.0, BelowRunningMin{}, out.entries_);
  return true;
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

void DistanceMap::drop_at_or_above(std::span<const Weight> bound) {
  std::erase_if(entries_, [bound](const DistEntry& e) {
    return e.dist >= bound[e.key];
  });
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

}  // namespace pmte
