#pragma once
// Entry point of the observability layer (docs/OBSERVABILITY.md): the
// compile-time PMTE_OBS toggle, the runtime ObsConfig switches, the
// process-wide MetricsRegistry / TraceSink singletons, and the RAII
// ScopedSpan that instrumented code uses through the PMTE_OBS_SPAN /
// PMTE_OBS_ONLY macros.
//
// Cost model — three independent levels:
//
//   1. Compile-time: building with -DPMTE_OBS=0 (CMake option PMTE_OBS=OFF)
//      expands every macro below to `static_cast<void>(0)` — instrumented
//      translation units contain no obs code at all.
//   2. Runtime off (the default): metrics_on()/trace_on() are single
//      relaxed atomic loads; spans read no clock and record nothing, and
//      instrumented code never touches the registry.
//   3. Runtime on: counters/histograms are relaxed atomic adds, spans are
//      two steady_clock reads plus a wait-free per-thread ring write.
//
// In every mode the obs layer is write-only with respect to algorithmic
// state: it never feeds a value back into BatchStats, TenantCounters,
// result hashes, or any control decision (the determinism bar in
// docs/DETERMINISM.md), which is why enabling it cannot perturb gated
// counters — pinned by test_obs.cpp's on/off differential test.

#ifndef PMTE_OBS
#define PMTE_OBS 1
#endif

#include <cstddef>
#include <cstdint>

#if PMTE_OBS
#include <atomic>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#endif

namespace pmte::obs {

/// Runtime switches, applied atomically by configure().  All default to
/// off: a binary built with PMTE_OBS=1 records nothing until an app (e.g.
/// serve_queries --metrics-out/--trace-out) or test opts in.
struct ObsConfig {
  bool metrics = false;
  bool trace = false;
  /// Per-thread trace ring capacity (most recent events win).
  std::size_t trace_events_per_thread = std::size_t{1} << 12;
};

#if PMTE_OBS

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

#else  // !PMTE_OBS

[[nodiscard]] inline bool metrics_on() noexcept { return false; }
[[nodiscard]] inline bool trace_on() noexcept { return false; }
inline void configure(const ObsConfig&) {}

#endif  // PMTE_OBS

}  // namespace pmte::obs

// Instrumentation macros.  PMTE_OBS_SPAN declares an anonymous ScopedSpan
// covering the rest of the enclosing scope; PMTE_OBS_ONLY compiles its
// argument only when the obs layer is built in (use it to guard metric
// handle lookups and counter adds).  Both vanish entirely at PMTE_OBS=0.
#if PMTE_OBS
#define PMTE_OBS_CONCAT_IMPL(a, b) a##b
#define PMTE_OBS_CONCAT(a, b) PMTE_OBS_CONCAT_IMPL(a, b)
#define PMTE_OBS_SPAN(...) \
  const ::pmte::obs::ScopedSpan PMTE_OBS_CONCAT(pmte_obs_span_, \
                                                __LINE__)(__VA_ARGS__)
#define PMTE_OBS_ONLY(...) __VA_ARGS__
#else
#define PMTE_OBS_SPAN(...) static_cast<void>(0)
#define PMTE_OBS_ONLY(...) static_cast<void>(0)
#endif
