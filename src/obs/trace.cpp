#include "src/obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace pmte::obs {

void TraceSink::configure_capacity(std::size_t events_per_thread) {
  if (events_per_thread == 0) events_per_thread = 1;
  capacity_ = events_per_thread;
  for (Ring& r : rings_) {
    r.buf.clear();
    r.buf.shrink_to_fit();
    r.next = 0;
    r.wrapped = false;
  }
}

void TraceSink::record(std::uint32_t tid, const TraceEvent& ev) noexcept {
  if (tid >= kMaxThreads) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Ring& r = rings_[tid];
  if (r.buf.size() != capacity_) r.buf.resize(capacity_);
  r.overwritten += r.wrapped ? 1 : 0;
  r.buf[r.next] = ev;
  if (++r.next == capacity_) {
    r.next = 0;
    r.wrapped = true;
  }
}

std::uint64_t TraceSink::overwritten() const noexcept {
  std::uint64_t n = 0;
  for (const Ring& r : rings_) n += r.overwritten;
  return n;
}

std::size_t TraceSink::num_events() const {
  std::size_t n = 0;
  for (const Ring& r : rings_) n += r.wrapped ? r.buf.size() : r.next;
  return n;
}

void TraceSink::clear() {
  for (Ring& r : rings_) {
    r.next = 0;
    r.wrapped = false;
  }
}

void TraceSink::write_chrome_trace(std::ostream& os) const {
  std::vector<TraceEvent> events;
  events.reserve(num_events());
  for (const Ring& r : rings_) {
    const std::size_t n = r.wrapped ? r.buf.size() : r.next;
    events.insert(events.end(), r.buf.begin(),
                  r.buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              // Equal-start same-thread spans: the longer one encloses the
              // shorter, and viewers want parents first.
              return a.dur_ns > b.dur_ns;
            });
  const std::uint64_t base = events.empty() ? 0 : events.front().ts_ns;

  // Chrome trace-event format, "JSON Object Format" flavour.  ts/dur are
  // microseconds; emitting 3 decimals keeps nanosecond precision.  One
  // event per line so line-oriented validators can parse without a JSON
  // library.
  const auto write_us = [&os](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
  };
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    os << "{\"name\":\"" << ev.name
       << "\",\"cat\":\"pmte\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
       << ",\"ts\":";
    write_us(ev.ts_ns - base);
    os << ",\"dur\":";
    write_us(ev.dur_ns);
    if (ev.arg_name != nullptr) {
      os << ",\"args\":{\"" << ev.arg_name << "\":" << ev.arg << '}';
    }
    os << '}' << (i + 1 < events.size() ? "," : "") << '\n';
  }
  os << "]}\n";
}

}  // namespace pmte::obs
