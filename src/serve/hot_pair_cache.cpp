#include "src/serve/hot_pair_cache.hpp"

#include <bit>

#include "src/obs/obs.hpp"
#include "src/util/assertions.hpp"

namespace pmte::serve {

namespace {

/// Process-wide admission/conflict/hit stream, aggregated across every
/// cache instance (per-tenant splits live in TenantCounters and the
/// pmte_server_* series).  All logical counts — deterministic, but kept
/// ungated: the gated per-scenario cache counters in BENCH_*.json already
/// pin the same quantities per stream.
struct CacheObs {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& admissions;
  obs::Counter& conflicts;
  obs::Counter& resets;
};

CacheObs& cache_obs() {
  auto& reg = obs::registry();
  static CacheObs o{
      reg.counter("pmte_cache_hits_total", {}, "Hot-pair cache hits"),
      reg.counter("pmte_cache_misses_total", {}, "Hot-pair cache misses"),
      reg.counter("pmte_cache_admissions_total", {},
                  "Misses that claimed an empty slot"),
      reg.counter("pmte_cache_conflicts_total", {},
                  "Misses bypassed because the slot was taken"),
      reg.counter("pmte_cache_resets_total", {},
                  "Cache clears (epoch hot-swaps and explicit resets)"),
  };
  return o;
}

}  // namespace

HotPairCache::HotPairCache(std::size_t capacity) {
  PMTE_CHECK(capacity >= 1, "HotPairCache: capacity must be positive");
  PMTE_CHECK(capacity <= (std::size_t{1} << 30),
             "HotPairCache: implausible capacity");
  const std::size_t rounded = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  slots_.assign(rounded, Slot{});
  mask_ = rounded - 1;
}

void HotPairCache::clear() {
  for (auto& s : slots_) s = Slot{};
  stats_ = HotPairCacheStats{};
  if (obs::metrics_on()) cache_obs().resets.add(1);
}

HotPairCache::Outcome HotPairCache::probe(std::uint64_t key,
                                          std::uint32_t* slot) {
  const std::uint32_t s = slot_of(key);
  *slot = s;
  ++stats_.lookups;
  const bool obs_metrics = obs::metrics_on();
  Slot& sl = slots_[s];
  if (!sl.valid) {
    sl.valid = true;
    sl.key = key;
    ++stats_.misses;
    ++stats_.admissions;
    if (obs_metrics) {
      cache_obs().misses.add(1);
      cache_obs().admissions.add(1);
    }
    return Outcome::fill;
  }
  if (sl.key == key) {
    ++stats_.hits;
    if (obs_metrics) cache_obs().hits.add(1);
    return Outcome::hit;
  }
  ++stats_.misses;
  ++stats_.conflicts;
  if (obs_metrics) {
    cache_obs().misses.add(1);
    cache_obs().conflicts.add(1);
  }
  return Outcome::bypass;
}

}  // namespace pmte::serve
