// Tests for the distance-map semimodule D (Definition 2.1) and its filters,
// including the semimodule axioms (Lemma A.4 / Corollary 2.2) and the
// congruence laws of the LE and source-detection filters (Lemma 2.8,
// Lemma 7.5) on randomised samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "tests/support/reference/axioms.hpp"
#include "src/algebra/distance_map.hpp"
#include "src/util/rng.hpp"

namespace pmte {
namespace {

DistanceMap random_map(Rng& rng, Vertex key_range, std::size_t max_entries) {
  std::vector<DistEntry> entries;
  const auto count = rng.below(max_entries + 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    entries.push_back(DistEntry{static_cast<Vertex>(rng.below(key_range)),
                                std::floor(rng.uniform(0.0, 20.0))});
  }
  return DistanceMap::from_entries(std::move(entries));
}

TEST(DistanceMap, FromEntriesNormalises) {
  auto m = DistanceMap::from_entries(
      {{3, 5.0}, {1, 2.0}, {3, 4.0}, {2, inf_weight()}});
  ASSERT_EQ(m.size(), 2U);
  EXPECT_EQ(m[0].key, 1U);
  EXPECT_DOUBLE_EQ(m[0].dist, 2.0);
  EXPECT_EQ(m[1].key, 3U);
  EXPECT_DOUBLE_EQ(m[1].dist, 4.0);  // duplicate keeps the minimum
  EXPECT_DOUBLE_EQ(m.at(1), 2.0);
  EXPECT_FALSE(is_finite(m.at(7)));
}

TEST(DistanceMap, MergeMinMatchesBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_map(rng, 12, 8);
    const auto b = random_map(rng, 12, 8);
    const double shift = std::floor(rng.uniform(0.0, 5.0));
    std::map<Vertex, Weight> expect;
    for (const auto& e : a.entries()) expect[e.key] = e.dist;
    for (const auto& e : b.entries()) {
      const auto it = expect.find(e.key);
      const Weight val = e.dist + shift;
      if (it == expect.end() || val < it->second) expect[e.key] = val;
    }
    a.merge_min(b, shift);
    ASSERT_EQ(a.size(), expect.size());
    for (const auto& [k, v] : expect) EXPECT_DOUBLE_EQ(a.at(k), v);
  }
}

TEST(DistanceMap, AddToAllInfinityYieldsBottom) {
  auto m = DistanceMap::from_entries({{0, 1.0}, {5, 2.0}});
  m.add_to_all(inf_weight());
  EXPECT_TRUE(m.empty());  // Equation (2.2)
}

TEST(DistanceMap, KeepKSmallestLexicographic) {
  auto m = DistanceMap::from_entries({{0, 5.0}, {1, 3.0}, {2, 3.0}, {3, 1.0}});
  m.keep_k_smallest(2);
  ASSERT_EQ(m.size(), 2U);
  EXPECT_DOUBLE_EQ(m.at(3), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1), 3.0);  // ties broken towards smaller key
}

TEST(DistanceMap, KeepKSmallestNoOpWhenSmall) {
  auto m = DistanceMap::from_entries({{0, 1.0}});
  m.keep_k_smallest(5);
  EXPECT_EQ(m.size(), 1U);
}

TEST(DistanceMap, KeepKSmallestZeroIsBottom) {
  auto m = DistanceMap::from_entries({{0, 5.0}, {1, 3.0}, {2, 1.0}});
  m.keep_k_smallest(0);
  EXPECT_TRUE(m.empty());
  DistanceMap bottom;
  bottom.keep_k_smallest(0);
  EXPECT_TRUE(bottom.empty());
}

TEST(DistanceMap, DropBeyond) {
  auto m = DistanceMap::from_entries({{0, 1.0}, {1, 5.0}, {2, 3.0}});
  m.drop_beyond(3.0);
  EXPECT_EQ(m.size(), 2U);
  EXPECT_TRUE(is_finite(m.at(2)));
  EXPECT_FALSE(is_finite(m.at(1)));
}

TEST(DistanceMap, LeFilterStaircase) {
  // Ranks: 0 far, 4 owns distance 0; dominated entries must vanish.
  auto m = DistanceMap::from_entries(
      {{4, 0.0}, {2, 4.0}, {3, 4.0}, {1, 9.0}, {0, 12.0}});
  m.keep_least_elements();
  EXPECT_TRUE(m.is_least_element_list());
  // (3,4) dominated by (2,4); (4,0) survives (nothing smaller).
  EXPECT_DOUBLE_EQ(m.at(4), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2), 4.0);
  EXPECT_FALSE(is_finite(m.at(3)));
  EXPECT_DOUBLE_EQ(m.at(0), 12.0);
}

TEST(DistanceMap, LeFilterMatchesBruteForce) {
  Rng rng(32);
  for (int trial = 0; trial < 300; ++trial) {
    const auto m = random_map(rng, 10, 10);
    auto filtered = m;
    filtered.keep_least_elements();
    EXPECT_TRUE(filtered.is_least_element_list());
    // Brute force: (k, d) survives iff no k' < k with d' <= d.
    for (const auto& e : m.entries()) {
      bool dominated = false;
      for (const auto& f : m.entries()) {
        if (f.key < e.key && f.dist <= e.dist) dominated = true;
      }
      if (dominated) {
        EXPECT_FALSE(is_finite(filtered.at(e.key)))
            << "dominated key " << e.key << " kept";
      } else {
        EXPECT_DOUBLE_EQ(filtered.at(e.key), e.dist);
      }
    }
  }
}

TEST(DistanceMap, MergeLeastElementsMatchesMergeThenFilter) {
  // r(x ⊕ s⊙y) in one pass must equal ⊕ followed by r bit for bit, on
  // inputs that are not LE lists themselves, with distance ties across keys
  // (random_map floors its distances), s ∈ {0, finite, ∞} and ⊥ on either
  // side.  The tallies make sure the trials really hit those cases.
  Rng rng(34);
  int non_le_x = 0, non_le_y = 0, cross_ties = 0, empty_x = 0, empty_y = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto x = trial % 10 == 0 ? DistanceMap{} : random_map(rng, 12, 10);
    auto y = trial % 10 == 1 ? DistanceMap{} : random_map(rng, 12, 10);
    if (trial % 4 == 2) x.keep_least_elements();  // the oracle's own case
    if (trial % 4 == 3) y.keep_least_elements();
    const Weight shift = trial % 3 == 0   ? 0.0
                         : trial % 3 == 1 ? inf_weight()
                                          : std::floor(rng.uniform(1.0, 6.0));
    non_le_x += x.is_least_element_list() ? 0 : 1;
    non_le_y += y.is_least_element_list() ? 0 : 1;
    empty_x += x.empty() ? 1 : 0;
    empty_y += y.empty() ? 1 : 0;
    auto expect = x;
    expect.merge_min(y, shift);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      for (std::size_t j = i + 1; j < expect.size(); ++j) {
        if (expect[i].dist == expect[j].dist) ++cross_ties;
      }
    }
    expect.keep_least_elements();
    x.merge_least_elements(y, shift);
    ASSERT_EQ(x, expect) << "trial " << trial << ", shift " << shift;
    ASSERT_TRUE(x.is_least_element_list()) << "trial " << trial;
  }
  EXPECT_GT(non_le_x, 100);
  EXPECT_GT(non_le_y, 100);
  EXPECT_GT(cross_ties, 100);
  EXPECT_GT(empty_x, 50);
  EXPECT_GT(empty_y, 50);
}

// A staircase of `length` entries from `first_key` on: keys step up by 1–3
// and integer distances step down by 1–3 to no less than 10, so offers
// built from it can tie exactly after a shift.
DistanceMap random_staircase(Rng& rng, std::size_t length, Vertex first_key) {
  std::vector<DistEntry> entries;
  Vertex key = first_key;
  Weight dist = 10.0 + 3.0 * static_cast<Weight>(length);
  for (std::size_t i = 0; i < length; ++i) {
    entries.push_back(DistEntry{key, dist});
    key += 1 + static_cast<Vertex>(rng.below(3));
    dist -= 1.0 + static_cast<Weight>(rng.below(3));
  }
  return DistanceMap::from_entries(std::move(entries));
}

// Same keys, and the same bits in every distance.
bool bit_equal(const DistanceMap& a, const DistanceMap& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key ||
        std::bit_cast<std::uint64_t>(a[i].dist) !=
            std::bit_cast<std::uint64_t>(b[i].dist)) {
      return false;
    }
  }
  return true;
}

// f_x(k): the dist of x's entry at the largest key ≤ k, ∞ if there is none.
Weight f_at(const DistanceMap& x, Vertex k) {
  Weight f = inf_weight();
  for (const auto& e : x.entries()) {
    if (e.key <= k) f = e.dist;
  }
  return f;
}

TEST(DistanceMap, GatherLeavesUnchangedReceiverUnwritten) {
  // The oracle's one-offer case: x is a staircase and y an offer it mostly
  // absorbs.  y takes entries of x at their own key or inside the gap to
  // the next key, at x's distance minus the shift plus 0–2 (0 ties with
  // the predecessor, which absorbs).  Trials then undercut one x key, add
  // a key below x's first, break x's staircase, or make x long.  A change
  // must give merge_min + keep_least_elements bit for bit, and a receiver
  // found unchanged must leave `out` unwritten: same entries, same buffer.
  Rng rng(36);
  int absorbed = 0, tie_absorbed = 0, undercut_at_key = 0, below_first = 0,
      non_staircase = 0, long_x = 0;
  const DistanceMap stale = DistanceMap::singleton(99, 1.0);
  for (int trial = 0; trial < 1200; ++trial) {
    const int kind = trial % 6;
    const std::size_t length = kind == 4   ? (trial % 12 == 4 ? 4096 : 33)
                               : kind == 5 ? 32
                                           : rng.below(33);
    auto x = random_staircase(rng, length, 3 + static_cast<Vertex>(rng.below(4)));
    const Weight shift = std::floor(rng.uniform(0.0, 6.0));
    std::vector<DistEntry> offer;
    bool tie = false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (rng.below(2) != 0) continue;
      const Vertex gap = i + 1 < x.size() ? x[i + 1].key - x[i].key : 3;
      const Weight extra = static_cast<Weight>(rng.below(3));
      tie = tie || extra == 0.0;
      offer.push_back(DistEntry{x[i].key + static_cast<Vertex>(rng.below(gap)),
                                x[i].dist - shift + extra});
    }
    if (kind == 1 && !x.empty()) {
      const std::size_t i = rng.below(x.size());
      offer.push_back(DistEntry{x[i].key, x[i].dist - shift - 1.0});
      ++undercut_at_key;
    }
    if (kind == 2) {
      offer.push_back(DistEntry{static_cast<Vertex>(rng.below(3)), 1000.0});
      ++below_first;
    }
    if (kind == 3 && x.size() >= 2) {
      // Raise one entry to its predecessor's distance or above.
      std::vector<DistEntry> raised(x.entries().begin(), x.entries().end());
      const std::size_t i = 1 + rng.below(raised.size() - 1);
      raised[i].dist = raised[i - 1].dist + static_cast<Weight>(rng.below(2));
      x = DistanceMap::from_entries(std::move(raised));
    }
    if (offer.empty()) offer.push_back(DistEntry{x.empty() ? 0 : x[0].key, 1e9});
    auto y = DistanceMap::from_entries(std::move(offer));
    y.keep_least_elements();  // offers are LE lists
    non_staircase += x.is_least_element_list() ? 0 : 1;
    long_x += x.size() > 32 ? 1 : 0;

    auto expect = x;
    expect.merge_min(y, shift);
    expect.keep_least_elements();
    const bool absorbs = expect == x;
    absorbed += absorbs ? 1 : 0;
    tie_absorbed += absorbs && tie ? 1 : 0;
    DistanceMap out = stale;
    const DistEntry* const buffer = out.entries().data();
    const Offer<DistanceMap> o{&y, shift, 0};
    const bool changed =
        DistanceMap::gather_least_elements(x, std::span(&o, 1), out);
    ASSERT_EQ(changed, !absorbs) << "trial " << trial << ", |x| " << length;
    if (changed) {
      ASSERT_TRUE(bit_equal(out, expect)) << "trial " << trial;
    } else {
      EXPECT_TRUE(bit_equal(out, stale)) << "trial " << trial;
      EXPECT_EQ(out.entries().data(), buffer) << "trial " << trial;
    }
  }
  EXPECT_GT(absorbed, 300);
  EXPECT_GT(tie_absorbed, 150);
  EXPECT_GT(undercut_at_key, 150);
  EXPECT_GT(below_first, 150);
  EXPECT_GT(non_staircase, 150);
  EXPECT_GT(long_x, 150);
}

TEST(DistanceMap, GatherMatchesSequentialMerges) {
  // A receiver x and a list of offers (y_i, s_i), each y_i an LE list drawn
  // around x: entries of x moved up inside their gap, at f_x minus s_i
  // plus -1..2 (-1 beats x, 0 ties it), sometimes a key below x's first,
  // sometimes a key that several offers share.  The gather must equal
  // r(x ⊕ s_1⊙y_1 ⊕ …) computed by merge_min and one keep_least_elements,
  // bit for bit, report a change exactly when that differs from x, and
  // leave `out` unwritten otherwise.  The tallies make sure each case of
  // the gather occurs.
  Rng rng(37);
  int bottom_x = 0, no_offers = 0, bottom_offer = 0, whole_absorbed = 0,
      entry_absorbed = 0, partly_absorbed = 0, ties = 0, smaller_at_key = 0,
      below_first = 0, shared_key = 0, many_offers = 0, non_staircase = 0,
      long_offers = 0, changed_trials = 0, unchanged_trials = 0;
  const DistanceMap stale = DistanceMap::singleton(99, 1.0);
  std::vector<DistanceMap> ys;
  std::vector<Weight> shifts;
  std::vector<Offer<DistanceMap>> offers;
  for (int trial = 0; trial < 3000; ++trial) {
    const int kind = trial % 10;
    // Kind 4 has long lists on both sides, which the gather walks.
    const std::size_t length =
        kind == 4 ? 32 + rng.below(33) : 1 + rng.below(24);
    const auto first = 3 + static_cast<Vertex>(rng.below(4));
    auto x = kind == 0 ? DistanceMap{} : random_staircase(rng, length, first);
    if (kind == 1 && x.size() >= 2) {
      std::vector<DistEntry> raised(x.entries().begin(), x.entries().end());
      const std::size_t i = 1 + rng.below(raised.size() - 1);
      raised[i].dist = raised[i - 1].dist + static_cast<Weight>(rng.below(2));
      x = DistanceMap::from_entries(std::move(raised));
    }
    const bool staircase = x.is_least_element_list();
    bottom_x += x.empty() ? 1 : 0;
    non_staircase += staircase ? 0 : 1;
    const std::size_t count = kind == 2   ? 0
                              : kind == 3 ? 64 + rng.below(17)
                                          : 1 + rng.below(8);
    no_offers += count == 0 ? 1 : 0;
    many_offers += count >= 64 ? 1 : 0;
    const Vertex shared = x.empty() ? 5
                                    : x[rng.below(x.size())].key +
                                          static_cast<Vertex>(rng.below(2));
    ys.clear();
    shifts.clear();
    for (std::size_t c = 0; c < count; ++c) {
      const Weight shift = std::floor(rng.uniform(0.0, 6.0));
      std::vector<DistEntry> es;
      if (rng.below(8) != 0) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          if (rng.below(3) >= (kind == 4 ? 2U : 1U)) continue;
          const Vertex gap = i + 1 < x.size() ? x[i + 1].key - x[i].key : 3;
          const Vertex key = x[i].key + static_cast<Vertex>(rng.below(gap));
          es.push_back(DistEntry{key, f_at(x, key) - shift - 1.0 +
                                          static_cast<Weight>(rng.below(4))});
        }
        if (x.empty() || rng.below(6) == 0) {
          es.push_back(DistEntry{static_cast<Vertex>(rng.below(3)),
                                 std::floor(rng.uniform(20.0, 200.0))});
        }
        if (rng.below(3) == 0) {
          const Weight f = f_at(x, shared);
          const auto extra = static_cast<Weight>(rng.below(3));
          es.push_back(DistEntry{
              shared, is_finite(f) ? f - shift - 1.0 + extra : 50.0 + extra});
        }
      }
      auto y = DistanceMap::from_entries(std::move(es));
      y.keep_least_elements();
      ys.push_back(std::move(y));
      shifts.push_back(shift);
    }
    offers.clear();
    for (std::size_t c = 0; c < count; ++c) {
      offers.push_back(Offer<DistanceMap>{&ys[c], shifts[c], 0});
    }

    // Classify each offer as the gather sees it (staircase x only).
    std::map<Vertex, int> offers_with_key;
    for (std::size_t c = 0; c < count && staircase; ++c) {
      const auto& y = ys[c];
      const Weight s = shifts[c];
      if (y.empty()) {
        ++bottom_offer;
        continue;
      }
      long_offers += x.size() >= 32 && y.size() >= 16 ? 1 : 0;
      std::size_t beats = 0;
      for (const auto& e : y.entries()) {
        const Weight d = e.dist + s;
        const Weight f = f_at(x, e.key);
        beats += d < f ? 1 : 0;
        ties += d == f ? 1 : 0;
        smaller_at_key += d < x.at(e.key) && is_finite(x.at(e.key)) ? 1 : 0;
        below_first += !x.empty() && e.key < x[0].key ? 1 : 0;
        ++offers_with_key[e.key];
      }
      if (y[y.size() - 1].dist + s >= f_at(x, y[0].key)) {
        ++whole_absorbed;
      } else if (beats == 0) {
        ++entry_absorbed;
      } else if (beats < y.size()) {
        ++partly_absorbed;
      }
    }
    shared_key += std::any_of(offers_with_key.begin(), offers_with_key.end(),
                              [](const auto& kv) { return kv.second > 1; })
                      ? 1
                      : 0;

    auto expect = x;
    for (std::size_t c = 0; c < count; ++c) expect.merge_min(ys[c], shifts[c]);
    expect.keep_least_elements();
    DistanceMap out = stale;
    const bool changed =
        DistanceMap::gather_least_elements(x, offers, out);
    ASSERT_EQ(changed, !bit_equal(expect, x)) << "trial " << trial;
    if (changed) {
      ++changed_trials;
      ASSERT_TRUE(bit_equal(out, expect)) << "trial " << trial;
    } else {
      ++unchanged_trials;
      ASSERT_TRUE(bit_equal(out, stale)) << "trial " << trial;
    }
  }
  EXPECT_GT(bottom_x, 250);
  EXPECT_GT(no_offers, 250);
  EXPECT_GT(bottom_offer, 4000);
  EXPECT_GT(whole_absorbed, 1500);
  EXPECT_GT(entry_absorbed, 3500);
  EXPECT_GT(partly_absorbed, 13000);
  EXPECT_GT(ties, 20000);
  EXPECT_GT(smaller_at_key, 14000);
  EXPECT_GT(below_first, 3500);
  EXPECT_GT(shared_key, 1500);
  EXPECT_GT(many_offers, 250);
  EXPECT_GT(non_staircase, 250);
  EXPECT_GT(long_offers, 800);
  EXPECT_GT(changed_trials, 2000);
  EXPECT_GT(unchanged_trials, 350);
}

// x without its entries (k, d) with d ≥ bound[k].
DistanceMap drop_at_or_above(DistanceMap x, const std::vector<Weight>& bound) {
  x.drop_at_or_above(bound);
  return x;
}

TEST(DistanceMap, GatherWithBoundMatchesGatherThenDrop) {
  // The oracle's bounded gather: an offered entry (k, d) is kept only when
  // d < min(f_x(k), B(k)), B a non-increasing bound over the keys.  The
  // bound is all ∞, lies just above x's staircase, or is a random
  // non-increasing step function around it with an ∞ prefix.  Offered
  // entries sit around f_x or around B (half of the latter offers keep one
  // entry), so an entry or a whole offer is cut by the bound alone.
  // Without its entries at or above B, the result must be the unbounded
  // r(x ⊕ offers) without them — all of it when x lies below B — and every
  // entry at or above B must be one of x's own.  A staircase x must report
  // a change exactly when that differs from x without its entries at or
  // above B, and leave `out` unwritten otherwise.
  Rng rng(38);
  constexpr Vertex kKeys = 256;
  int all_infinite = 0, x_below = 0, whole_cut_by_bound = 0,
      entry_cut_by_bound = 0, walked = 0, non_staircase = 0,
      changed_trials = 0, unchanged_trials = 0;
  const DistanceMap stale = DistanceMap::singleton(99, 1.0);
  std::vector<Weight> bound(kKeys);
  std::vector<DistanceMap> ys;
  std::vector<Offer<DistanceMap>> offers;
  for (int trial = 0; trial < 3600; ++trial) {
    const int kind = trial % 6;
    const std::size_t length =
        kind == 4 ? 32 + rng.below(33) : rng.below(25);
    auto x = random_staircase(rng, length,
                              3 + static_cast<Vertex>(rng.below(4)));
    if (kind == 5 && x.size() >= 2) {
      std::vector<DistEntry> raised(x.entries().begin(), x.entries().end());
      const std::size_t i = 1 + rng.below(raised.size() - 1);
      raised[i].dist = raised[i - 1].dist + static_cast<Weight>(rng.below(2));
      x = DistanceMap::from_entries(std::move(raised));
    }
    const bool staircase = x.is_least_element_list();
    non_staircase += staircase ? 0 : 1;

    auto filtered = x;  // f of a staircase falls with the key
    filtered.keep_least_elements();
    const int shape = trial % 7;  // 0: all ∞, 1: above x, else around x
    if (shape == 0) {
      std::fill(bound.begin(), bound.end(), inf_weight());
      ++all_infinite;
    } else if (shape == 1) {
      const auto above = static_cast<Weight>(1 + rng.below(3));
      for (Vertex k = 0; k < kKeys; ++k) bound[k] = f_at(filtered, k) + above;
    } else {
      // f_x (60 where it is ∞) plus -8..3 at each key, made non-increasing
      // by a running maximum from the top key down, and ∞ below a random
      // key.
      const auto infinite_below = static_cast<Vertex>(rng.below(8));
      Weight running = -inf_weight();
      for (Vertex k = kKeys; k-- > 0;) {
        const Weight f = f_at(filtered, k);
        running = std::max(running, (is_finite(f) ? f : 60.0) +
                                        std::floor(rng.uniform(-8.0, 4.0)));
        bound[k] = k < infinite_below ? inf_weight() : running;
      }
    }
    const bool below = std::all_of(
        x.entries().begin(), x.entries().end(),
        [&](const DistEntry& e) { return e.dist < bound[e.key]; });
    x_below += below ? 1 : 0;

    const std::size_t count = 1 + rng.below(6);
    ys.clear();
    std::vector<Weight> shifts;
    for (std::size_t c = 0; c < count; ++c) {
      const Weight shift = std::floor(rng.uniform(0.0, 6.0));
      // Around f_x, around B, or around the smaller of the two.
      const auto around = rng.below(3);
      const auto target = [&](Vertex k) {
        const Weight f = f_at(x, k);
        const Weight t = around == 0 ? f
                         : around == 1 ? bound[k]
                                       : std::min(f, bound[k]);
        return is_finite(t) ? t : 40.0;
      };
      std::vector<DistEntry> es;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (rng.below(3) >= (kind == 4 ? 2U : 1U)) continue;
        const Vertex gap = i + 1 < x.size() ? x[i + 1].key - x[i].key : 3;
        const Vertex key = x[i].key + static_cast<Vertex>(rng.below(gap));
        es.push_back(DistEntry{key, target(key) - shift - 1.0 +
                                        static_cast<Weight>(rng.below(4))});
      }
      if (x.empty() || rng.below(4) == 0) {
        const auto key = static_cast<Vertex>(rng.below(3));
        es.push_back(DistEntry{key, target(key) - shift - 1.0 +
                                        static_cast<Weight>(rng.below(4))});
      }
      if (around == 1 && es.size() > 1 && rng.below(2) == 0) {
        es = {es[rng.below(es.size())]};
      }
      auto y = DistanceMap::from_entries(std::move(es));
      y.keep_least_elements();
      ys.push_back(std::move(y));
      shifts.push_back(shift);
    }
    offers.clear();
    for (std::size_t c = 0; c < count; ++c) {
      offers.push_back(Offer<DistanceMap>{&ys[c], shifts[c], 0});
    }

    // Classify each offer as the bounded gather sees it.
    for (std::size_t c = 0; c < count && staircase; ++c) {
      const auto& y = ys[c];
      if (y.empty()) continue;
      const Weight s = shifts[c];
      const Vertex first = y[0].key;
      const Weight least = y[y.size() - 1].dist + s;
      if (least >= std::min(f_at(x, first), bound[first])) {
        whole_cut_by_bound += least < f_at(x, first) ? 1 : 0;
        continue;
      }
      walked += x.size() * y.size() >= 8 * (x.size() + y.size()) ? 1 : 0;
      for (const auto& e : y.entries()) {
        const Weight d = e.dist + s;
        entry_cut_by_bound += d < f_at(x, e.key) && d >= bound[e.key] ? 1 : 0;
      }
    }

    auto unbounded = x;
    for (std::size_t c = 0; c < count; ++c) {
      unbounded.merge_min(ys[c], shifts[c]);
    }
    unbounded.keep_least_elements();
    const auto expect = drop_at_or_above(unbounded, bound);

    DistanceMap out = stale;
    const DistEntry* const buffer = out.entries().data();
    const bool changed =
        DistanceMap::gather_least_elements(x, offers, out, bound);
    const DistanceMap& result = changed ? out : x;
    ASSERT_TRUE(bit_equal(drop_at_or_above(result, bound), expect))
        << "trial " << trial;
    if (below) {
      ASSERT_TRUE(bit_equal(result, expect)) << "trial " << trial;
    }
    for (const auto& e : result.entries()) {
      ASSERT_TRUE(e.dist < bound[e.key] || x.at(e.key) == e.dist)
          << "trial " << trial << ", key " << e.key;
    }
    if (!staircase) {
      ASSERT_TRUE(changed) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(changed, !bit_equal(expect, drop_at_or_above(x, bound)))
        << "trial " << trial;
    if (changed) {
      ++changed_trials;
    } else {
      ++unchanged_trials;
      ASSERT_TRUE(bit_equal(out, stale)) << "trial " << trial;
      ASSERT_EQ(out.entries().data(), buffer) << "trial " << trial;
    }
  }
  EXPECT_GT(all_infinite, 400);
  EXPECT_GT(x_below, 1000);
  EXPECT_GT(whole_cut_by_bound, 180);
  EXPECT_GT(entry_cut_by_bound, 4000);
  EXPECT_GT(walked, 1000);
  EXPECT_GT(non_staircase, 400);
  EXPECT_GT(changed_trials, 2000);
  EXPECT_GT(unchanged_trials, 300);
}

TEST(DistanceMap, AssignDifferenceMatchesBruteForce) {
  // now ∖ before keeps an entry of `now` unless `before` holds the same key
  // at the same distance.  `before` is drawn around `now` (entries dropped,
  // re-weighted, added) so the trials hit every case, counted below: ⊥ on
  // either side, identical maps, an equal key at another distance, and
  // keys only `before` has.  The engine's premise now ⊕ before =
  // (now ∖ before) ⊕ before is checked on every trial.
  Rng rng(35);
  int empty_now = 0, empty_before = 0, identical = 0, reweighted = 0,
      before_only = 0;
  DistanceMap out = DistanceMap::singleton(99, 1.0);  // stale output buffer
  for (int trial = 0; trial < 600; ++trial) {
    const auto now = trial % 10 == 0 ? DistanceMap{} : random_map(rng, 12, 10);
    std::vector<DistEntry> drawn;
    if (trial % 10 != 1) {
      for (const auto& e : now.entries()) {
        if (trial % 10 == 2 || rng.below(4) != 0) {
          drawn.push_back(DistEntry{
              e.key, trial % 10 != 2 && rng.below(3) == 0 ? e.dist + 1.0
                                                          : e.dist});
        }
      }
      if (trial % 10 != 2) {
        const auto extra = random_map(rng, 12, 4);
        drawn.insert(drawn.end(), extra.entries().begin(),
                     extra.entries().end());
      }
    }
    const auto before = DistanceMap::from_entries(std::move(drawn));

    std::set<std::pair<Vertex, Weight>> before_set;
    for (const auto& e : before.entries()) before_set.insert({e.key, e.dist});
    std::vector<DistEntry> expect;
    for (const auto& e : now.entries()) {
      if (before_set.count({e.key, e.dist}) == 0) expect.push_back(e);
      const Weight was = before.at(e.key);
      if (is_finite(was) && was != e.dist) ++reweighted;
    }
    for (const auto& e : before.entries()) {
      if (!is_finite(now.at(e.key))) ++before_only;
    }
    empty_now += now.empty() ? 1 : 0;
    empty_before += before.empty() ? 1 : 0;
    identical += !now.empty() && now == before ? 1 : 0;

    out.assign_difference(now, before);
    ASSERT_TRUE(std::equal(out.entries().begin(), out.entries().end(),
                           expect.begin(), expect.end()))
        << "trial " << trial;
    if (now == before) {
      ASSERT_TRUE(out.empty()) << "trial " << trial;
    }
    auto lhs = now;
    lhs.merge_min(before);
    auto rhs = out;
    rhs.merge_min(before);
    ASSERT_EQ(lhs, rhs) << "trial " << trial;
  }
  EXPECT_GE(empty_now, 60);
  EXPECT_GE(empty_before, 60);
  EXPECT_GT(identical, 30);
  EXPECT_GT(reweighted, 200);
  EXPECT_GT(before_only, 200);
}

TEST(DistanceMap, LeFilterIdempotent) {
  Rng rng(33);
  for (int trial = 0; trial < 100; ++trial) {
    auto m = random_map(rng, 15, 12);
    m.keep_least_elements();
    auto twice = m;
    twice.keep_least_elements();
    EXPECT_EQ(m, twice);  // Observation 2.7: r² = r
  }
}

// --- Semimodule axioms for D over Smin,+ (Corollary 2.2) --------------

class DistanceMapSemimodule : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DistanceMapSemimodule, Axioms) {
  Rng rng(GetParam());
  std::vector<Weight> scalars{0.0, 1.0, inf_weight(),
                              std::floor(rng.uniform(0.0, 9.0))};
  std::vector<DistanceMap> elems{DistanceMap{}};
  for (int i = 0; i < 5; ++i) elems.push_back(random_map(rng, 8, 6));
  const auto madd = [](const DistanceMap& a, const DistanceMap& b) {
    auto out = a;
    out.merge_min(b);
    return out;
  };
  const auto smul = [](const Weight& s, const DistanceMap& x) {
    auto out = x;
    out.add_to_all(s);
    return out;
  };
  const auto eq = [](const DistanceMap& a, const DistanceMap& b) {
    return a == b;
  };
  const auto rep = check_semimodule_axioms<MinPlus, DistanceMap>(
      scalars, elems, madd, smul, DistanceMap{}, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceMapSemimodule,
                         ::testing::Values(41, 42, 43, 44, 45));

// --- Congruence of the filters (Lemma 2.8 / Lemma 7.5) ----------------

class FilterCongruence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterCongruence, LeFilterIsCongruent) {
  Rng rng(GetParam());
  std::vector<Weight> scalars{0.0, 2.0, 5.0, inf_weight()};
  std::vector<DistanceMap> elems{DistanceMap{}};
  for (int i = 0; i < 7; ++i) elems.push_back(random_map(rng, 6, 6));
  const auto madd = [](const DistanceMap& a, const DistanceMap& b) {
    auto out = a;
    out.merge_min(b);
    return out;
  };
  const auto smul = [](const Weight& s, const DistanceMap& x) {
    auto out = x;
    out.add_to_all(s);
    return out;
  };
  const auto r = [](const DistanceMap& x) {
    auto out = x;
    out.keep_least_elements();
    return out;
  };
  const auto eq = [](const DistanceMap& a, const DistanceMap& b) {
    return a == b;
  };
  const auto rep =
      check_congruence<MinPlus, DistanceMap>(scalars, elems, madd, smul, r, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST_P(FilterCongruence, SourceDetectionFilterIsCongruent) {
  Rng rng(GetParam() + 1000);
  std::vector<Weight> scalars{0.0, 1.0, 3.0, inf_weight()};
  std::vector<DistanceMap> elems{DistanceMap{}};
  for (int i = 0; i < 7; ++i) elems.push_back(random_map(rng, 6, 6));
  const auto madd = [](const DistanceMap& a, const DistanceMap& b) {
    auto out = a;
    out.merge_min(b);
    return out;
  };
  const auto smul = [](const Weight& s, const DistanceMap& x) {
    auto out = x;
    out.add_to_all(s);
    return out;
  };
  // (S, h, d, k)-source-detection filter with d = 12, k = 3 (Example 3.2).
  const auto r = [](const DistanceMap& x) {
    auto out = x;
    out.drop_beyond(12.0);
    out.keep_k_smallest(3);
    return out;
  };
  const auto eq = [](const DistanceMap& a, const DistanceMap& b) {
    return a == b;
  };
  const auto rep =
      check_congruence<MinPlus, DistanceMap>(scalars, elems, madd, smul, r, eq);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterCongruence,
                         ::testing::Values(51, 52, 53, 54));

}  // namespace
}  // namespace pmte
