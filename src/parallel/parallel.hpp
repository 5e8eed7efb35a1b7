#pragma once
// OpenMP helpers.
//
// The paper analyses algorithms in an abstract work/depth model; we realise
// the data parallelism with OpenMP.  All parallel loops in the library go
// through parallel_for / parallel_for_balanced so that thread counts can
// be controlled centrally (PMTE benches sweep threads for the scaling
// experiment E11).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

// ThreadSanitizer cannot see the happens-before edge of the OpenMP join
// barrier when the runtime itself is uninstrumented (gcc's libgomp; llvm's
// libomp without the Archer OMPT tool), so worker-thread writes look
// unordered against the caller's post-region reads and every parallel_for
// user false-positives.  PMTE_TSAN_ACTIVE gates a join fence that restates
// the barrier's edge in plain C++ atomics: each iteration publishes with a
// release increment, the caller acquires once after the region.  Normal
// builds compile the fence away entirely.
#if defined(__SANITIZE_THREAD__)
#define PMTE_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PMTE_TSAN_ACTIVE 1
#endif
#endif
#ifndef PMTE_TSAN_ACTIVE
#define PMTE_TSAN_ACTIVE 0
#endif

namespace pmte {

namespace detail {
#if PMTE_TSAN_ACTIVE
struct TsanJoin {
  std::atomic<unsigned> token{0};
  // Fork edge: the constructor runs on the calling thread before the
  // region opens; enter()'s acquire load picks up that release store, so
  // the caller's prior writes are ordered before every worker.  (The
  // pthread_create edge only covers a pool thread's *first* region.)
  TsanJoin() noexcept { token.store(1, std::memory_order_release); }
  void enter() noexcept { (void)token.load(std::memory_order_acquire); }
  // Join edge: release-RMWs continue one release sequence, so the single
  // acquire load synchronises with every publish() on every worker.
  void publish() noexcept { token.fetch_add(1, std::memory_order_release); }
  void collect() noexcept { (void)token.load(std::memory_order_acquire); }
};
#else
struct TsanJoin {
  void enter() noexcept {}
  void publish() noexcept {}
  void collect() noexcept {}
};
#endif
}  // namespace detail

/// The most threads the per-thread bookkeeping keeps apart: WorkDepth
/// folds the threads past it into one overflow slot, and obs::TraceSink
/// drops their events.  serve_queries caps --threads at it.
inline constexpr std::size_t kMaxThreads = 256;

/// Number of threads OpenMP will use for parallel regions.
[[nodiscard]] inline int num_threads() noexcept {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Set the number of OpenMP threads (global).
inline void set_num_threads(int n) noexcept {
#ifdef _OPENMP
  if (n > 0) omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Index of the calling thread inside a parallel region (0 outside).
[[nodiscard]] inline int thread_index() noexcept {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// True iff the caller is already inside an OpenMP parallel region (in
/// which case nested parallel_for calls run serially).
[[nodiscard]] inline bool in_parallel() noexcept {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Parallel loop over [0, n) with dynamic scheduling; body(i) must be
/// independent across iterations (no shared writes without synchronisation).
template <typename Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 64) {
#ifdef _OPENMP
  if (n >= 2 * grain && omp_get_max_threads() > 1 && !in_parallel()) {
    detail::TsanJoin join;
#pragma omp parallel for schedule(dynamic, static_cast<long>(grain))
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      join.enter();
      body(static_cast<std::size_t>(i));
      join.publish();
    }
    join.collect();
    return;
  }
#else
  (void)grain;
#endif
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Parallel loop over [0, n) where iteration i costs ≈ cost(i) units (for
/// the engine: a vertex's degree).  schedule(dynamic, grain) deals badly
/// with skewed costs — a star centre makes one 64-iteration chunk carry
/// almost all the work while every other chunk finishes instantly.  Here a
/// serial greedy scan cuts [0, n) into contiguous chunks of near-equal
/// *total cost* (several per thread, so dynamic scheduling can still
/// rebalance), and the chunks are dispatched dynamically.  Each index runs
/// exactly once, in ascending order within its chunk, so outputs written
/// per index and WorkDepth counters are bit-identical to the serial loop
/// and to parallel_for — only the thread assignment changes.
template <typename CostFn, typename Body>
void parallel_for_balanced(std::size_t n, CostFn&& cost, Body&& body,
                           std::uint64_t min_chunk_cost = 512) {
#ifdef _OPENMP
  if (n >= 2 && omp_get_max_threads() > 1 && !in_parallel()) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += static_cast<std::uint64_t>(cost(i)) + 1;  // +1: item overhead
    }
    const auto threads = static_cast<std::uint64_t>(omp_get_max_threads());
    const std::uint64_t target =
        std::max<std::uint64_t>(min_chunk_cost, total / (8 * threads) + 1);
    if (total > 2 * target) {
      // Chunk boundaries: cut whenever the running cost reaches `target`.
      std::vector<std::size_t> starts;
      starts.reserve(static_cast<std::size_t>(total / target) + 2);
      std::uint64_t acc = 0;
      starts.push_back(0);
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::uint64_t>(cost(i)) + 1;
        if (acc >= target && i + 1 < n) {
          starts.push_back(i + 1);
          acc = 0;
        }
      }
      starts.push_back(n);
      const auto chunks = static_cast<std::int64_t>(starts.size() - 1);
      detail::TsanJoin join;
#pragma omp parallel for schedule(dynamic, 1)
      for (std::int64_t c = 0; c < chunks; ++c) {
        join.enter();
        const std::size_t hi = starts[static_cast<std::size_t>(c) + 1];
        for (std::size_t i = starts[static_cast<std::size_t>(c)]; i < hi;
             ++i) {
          body(i);
        }
        join.publish();
      }
      join.collect();
      return;
    }
  }
#else
  (void)cost;
  (void)min_chunk_cost;
#endif
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Per-thread append buffers for parallel set collection (frontiers, edge
/// lists).  Each OpenMP thread appends to its own cache-line-separated
/// vector without synchronisation; draining concatenates all buffers and
/// sorts, so the merged result is *deterministic* — independent of the
/// thread count and of which thread produced which element.  Buffers keep
/// their capacity across clear()/drain cycles, so steady-state use
/// allocates nothing.
template <typename T>
class PerThreadBuffers {
 public:
  PerThreadBuffers() { ensure_slots(); }

  /// Buffer of the calling thread.  Only valid to touch from within the
  /// parallel region (or serially); never resize the slot array while a
  /// parallel region is appending.
  [[nodiscard]] std::vector<T>& local() noexcept {
    return slots_[static_cast<std::size_t>(thread_index())].buf;
  }

  /// Empty all buffers (capacity retained) and make sure one slot exists
  /// per OpenMP thread.  Call outside parallel regions.
  void clear() {
    ensure_slots();
    for (auto& s : slots_) s.buf.clear();
  }

  /// Move all buffered elements into `out`, sorted ascending.
  void drain_sorted(std::vector<T>& out) {
    concat(out);
    std::sort(out.begin(), out.end());
  }

 private:
  struct alignas(64) Slot {
    std::vector<T> buf;
  };

  void ensure_slots() {
    const auto want = static_cast<std::size_t>(std::max(num_threads(), 1));
    if (slots_.size() < want) slots_.resize(want);
  }

  void concat(std::vector<T>& out) {
    std::size_t total = 0;
    for (const auto& s : slots_) total += s.buf.size();
    out.clear();
    out.reserve(total);
    for (auto& s : slots_) {
      out.insert(out.end(), s.buf.begin(), s.buf.end());
      s.buf.clear();
    }
  }

  std::vector<Slot> slots_;
};

}  // namespace pmte
