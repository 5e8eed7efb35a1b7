#include "src/obs/obs.hpp"

#if PMTE_OBS

#include "src/parallel/parallel.hpp"
#include "src/util/timer.hpp"

namespace pmte::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
std::atomic<bool> g_trace_on{false};
}  // namespace detail

MetricsRegistry& registry() {
  static MetricsRegistry r;
  return r;
}

TraceSink& trace_sink() {
  static TraceSink s;
  return s;
}

void publish_trace_losses() {
  const auto publish = [](const char* reason, std::uint64_t lost) {
    Counter& c = registry().counter(
        "pmte_trace_events_lost_total", {{"reason", reason}},
        "Trace events lost: past the ring table's thread indices, or "
        "overwritten in a full ring");
    c.reset();
    c.add(lost);
  };
  publish("thread_index", trace_sink().dropped());
  publish("ring_overwrite", trace_sink().overwritten());
}

void configure(const ObsConfig& cfg) {
  if (cfg.trace) trace_sink().configure_capacity(cfg.trace_events_per_thread);
  detail::g_metrics_on.store(cfg.metrics, std::memory_order_relaxed);
  detail::g_trace_on.store(cfg.trace, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t arg,
                       const char* arg_name, Histogram* latency) noexcept
    : name_(name),
      arg_name_(arg_name),
      latency_(latency),
      arg_(arg),
      start_ns_(0) {
  // Read the clock only when someone will consume the measurement.
  if (trace_on() || (latency_ != nullptr && metrics_on())) {
    start_ns_ = now_ns();
  }
}

void ScopedSpan::finish() noexcept {
  if (start_ns_ == 0) return;
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur_ns = end_ns - start_ns_;
  if (latency_ != nullptr && metrics_on()) latency_->record(dur_ns);
  if (trace_on()) {
    TraceEvent ev;
    ev.name = name_;
    ev.ts_ns = start_ns_;
    ev.dur_ns = dur_ns;
    ev.tid = static_cast<std::uint32_t>(thread_index());
    if (arg_ >= 0 && arg_name_ != nullptr) {
      ev.arg_name = arg_name_;
      ev.arg = arg_;
    }
    trace_sink().record(ev.tid, ev);
  }
  start_ns_ = 0;
}

}  // namespace pmte::obs

#endif  // PMTE_OBS
