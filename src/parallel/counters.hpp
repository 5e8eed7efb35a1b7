#pragma once
// Work/depth instrumentation.
//
// The paper's cost model (Section 1.2, "Model of Computation") counts the
// nodes of the computation DAG as *work* and its longest path as *depth*.
// We approximate: every semiring/semimodule element operation increments a
// work counter, and each global sequential phase (one MBF-like iteration,
// one sort pass, …) increments a depth counter.  The engine additionally
// tracks *relaxations* (edge relax applications, the unit the frontier
// optimisation saves) and *edges touched* (half-edges scanned, including
// the cheap frontier-membership tests of sparse rounds).  All four are
// counts of logical operations, so they are deterministic for a fixed
// input — independent of thread count and scheduling; the CI bench gate
// (scripts/check_bench_regression.py) relies on this.  Counters are
// per-thread to avoid contention and merged on read.

#include <array>
#include <atomic>
#include <cstdint>

#include "src/parallel/parallel.hpp"

namespace pmte {

/// Global work/depth counters.  Adds are cheap (per-thread cache line);
/// depth adds happen outside parallel regions.  Each slot is written only
/// by its owning thread, but read() helpers may sum the slots while other
/// threads are mid-update (e.g. a WorkDepthScope inside one branch of a
/// parallel tree build), so the fields are relaxed atomics: plain
/// load/store on every target, no RMW in the hot path, no data-race UB.
/// Concurrent reads are then snapshots — exact once the region joins.
class WorkDepth {
 public:
  /// Record `n` units of work on the calling thread.
  static void add_work(std::uint64_t n) noexcept { bump(&Slot::work, n); }

  /// Record `n` edge relaxations (relax applications) on the calling thread.
  static void add_relaxations(std::uint64_t n) noexcept {
    bump(&Slot::relaxations, n);
  }

  /// Record `n` half-edges scanned on the calling thread.
  static void add_edges_touched(std::uint64_t n) noexcept {
    bump(&Slot::edges, n);
  }

  /// Record `n` units of sequential depth.  Depth is a critical-path
  /// (span) metric: branches running concurrently must not both count, so
  /// call this outside parallel regions — the engine helpers use
  /// add_depth_serial() to drop contributions from nested (source-
  /// parallel) invocations instead of summing them across branches.
  static void add_depth(std::uint64_t n) noexcept { depth_ += n; }

  /// add_depth, but a no-op when called from inside a parallel region
  /// (where the phase runs on one of many concurrent branches and would
  /// otherwise inflate the span by the branch count).
  static void add_depth_serial(std::uint64_t n) noexcept {
    if (!in_parallel()) depth_ += n;
  }

  static void reset() noexcept {
    for (auto& s : slots_) {
      s.work.store(0, std::memory_order_relaxed);
      s.relaxations.store(0, std::memory_order_relaxed);
      s.edges.store(0, std::memory_order_relaxed);
    }
    depth_ = 0;
  }

  [[nodiscard]] static std::uint64_t work() noexcept {
    std::uint64_t total = 0;
    for (const auto& s : slots_) {
      total += s.work.load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] static std::uint64_t relaxations() noexcept {
    std::uint64_t total = 0;
    for (const auto& s : slots_) {
      total += s.relaxations.load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] static std::uint64_t edges_touched() noexcept {
    std::uint64_t total = 0;
    for (const auto& s : slots_) {
      total += s.edges.load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] static std::uint64_t depth() noexcept { return depth_; }

 private:
  struct alignas(64) Slot {
    // zero-initialised via the array's {} value-init
    std::atomic<std::uint64_t> work;
    std::atomic<std::uint64_t> relaxations;
    std::atomic<std::uint64_t> edges;
  };

  /// Increment of the calling thread's counter.  Threads 0..kMaxThreads−1
  /// own their slot exclusively, so a relaxed load + store suffices
  /// (compiles to the same mov/add/mov as a plain +=).  Any further
  /// threads share one dedicated overflow slot written only with
  /// fetch_add — increments are never lost, so the totals stay
  /// thread-count independent at any oversubscription.
  static void bump(std::atomic<std::uint64_t> Slot::* member,
                   std::uint64_t n) noexcept {
    const auto idx = static_cast<std::size_t>(thread_index());
    if (idx < kMaxThreads) {
      auto& c = slots_[idx].*member;
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    } else {
      (slots_[kMaxThreads].*member).fetch_add(n, std::memory_order_relaxed);
    }
  }

  static inline std::array<Slot, kMaxThreads + 1> slots_ = {};
  static inline std::atomic<std::uint64_t> depth_{0};
};

/// RAII scope that snapshots all counters and reports the deltas.
class WorkDepthScope {
 public:
  WorkDepthScope() noexcept
      : work0_(WorkDepth::work()),
        relax0_(WorkDepth::relaxations()),
        edges0_(WorkDepth::edges_touched()),
        depth0_(WorkDepth::depth()) {}

  [[nodiscard]] std::uint64_t work_delta() const noexcept {
    return WorkDepth::work() - work0_;
  }
  [[nodiscard]] std::uint64_t relaxations_delta() const noexcept {
    return WorkDepth::relaxations() - relax0_;
  }
  [[nodiscard]] std::uint64_t edges_touched_delta() const noexcept {
    return WorkDepth::edges_touched() - edges0_;
  }
  [[nodiscard]] std::uint64_t depth_delta() const noexcept {
    return WorkDepth::depth() - depth0_;
  }

 private:
  std::uint64_t work0_;
  std::uint64_t relax0_;
  std::uint64_t edges0_;
  std::uint64_t depth0_;
};

}  // namespace pmte
