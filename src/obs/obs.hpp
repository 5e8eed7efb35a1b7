#pragma once
// Entry point of the observability layer (docs/OBSERVABILITY.md): the
// runtime ObsConfig switches, the process-wide MetricsRegistry /
// TraceSink singletons, and the RAII ScopedSpan that instrumented code
// uses through the PMTE_OBS_SPAN macro.
//
// Cost model — two levels:
//
//   1. Runtime off (the default): metrics_on()/trace_on() are single
//      relaxed atomic loads; spans read no clock and record nothing, and
//      instrumented code never touches the registry.
//   2. Runtime on: counters/histograms are relaxed atomic adds, spans are
//      two steady_clock reads plus a wait-free per-thread ring write.
//
// In every mode the obs layer is write-only with respect to algorithmic
// state: it never feeds a value back into BatchStats, TenantCounters,
// result hashes, or any control decision (the determinism bar in
// docs/DETERMINISM.md), which is why enabling it cannot perturb gated
// counters — pinned by test_obs.cpp's on/off differential test.

// The layer is always built in.  The macro stays defined, as 1, because
// the lifecycle benchmark (lifecycle_bench/lifecycle.cpp) reads it.
#define PMTE_OBS 1

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace pmte::obs {

/// Runtime switches, applied atomically by configure().  All default to
/// off: a binary records nothing until an app (e.g. serve_queries
/// --metrics-out/--trace-out) or test opts in.
struct ObsConfig {
  bool metrics = false;
  bool trace = false;
  /// Per-thread trace ring capacity (most recent events win).
  std::size_t trace_events_per_thread = std::size_t{1} << 12;
};

namespace detail {
extern std::atomic<bool> g_metrics_on;
extern std::atomic<bool> g_trace_on;
}  // namespace detail

/// Hot-path switches: one relaxed load each.
[[nodiscard]] inline bool metrics_on() noexcept {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool trace_on() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Apply a config.  Serial-phase only (resizes trace rings when the
/// capacity changes).  configure({}) turns everything back off.
void configure(const ObsConfig& cfg);

/// Process-wide instrument store.  Never destroyed (function-local
/// static), so handles cached by instrumented code stay valid for the
/// process lifetime.
[[nodiscard]] MetricsRegistry& registry();

/// Process-wide trace sink.  Same lifetime guarantee.
[[nodiscard]] TraceSink& trace_sink();

/// Set pmte_trace_events_lost_total{reason="thread_index"} and
/// {reason="ring_overwrite"} to trace_sink()'s dropped() and
/// overwritten(), so an export of the registry shows what the trace lost.
/// Serial only; call it before writing the registry out.
void publish_trace_losses();

/// RAII span: measures from construction to destruction and records a
/// complete trace event (and optionally a latency histogram sample) on
/// close.  Inactive spans — tracing off and no histogram wanted — skip
/// the clock reads entirely.  Use through PMTE_OBS_SPAN unless a span
/// must outlive a scope.
class ScopedSpan {
 public:
  /// `name`/`arg_name` must be string literals (stored by pointer).
  /// `arg` ≥ 0 attaches a numeric argument under `arg_name`.  `latency`,
  /// if non-null, receives the span duration in ns when metrics are on —
  /// by convention such histograms are named *_duration_ns and are never
  /// gated (see docs/OBSERVABILITY.md).
  explicit ScopedSpan(const char* name, std::int64_t arg = -1,
                      const char* arg_name = nullptr,
                      Histogram* latency = nullptr) noexcept;
  ~ScopedSpan() { finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void finish() noexcept;

  const char* name_;
  const char* arg_name_;
  Histogram* latency_;
  std::int64_t arg_;
  std::uint64_t start_ns_;  ///< 0 ⇒ inactive, nothing to record
};

}  // namespace pmte::obs

// PMTE_OBS_SPAN declares an anonymous ScopedSpan covering the rest of the
// enclosing scope.
#define PMTE_OBS_CONCAT_IMPL(a, b) a##b
#define PMTE_OBS_CONCAT(a, b) PMTE_OBS_CONCAT_IMPL(a, b)
#define PMTE_OBS_SPAN(...) \
  const ::pmte::obs::ScopedSpan PMTE_OBS_CONCAT(pmte_obs_span_, \
                                                __LINE__)(__VA_ARGS__)
