#pragma once
// Trace half of the observability layer (docs/OBSERVABILITY.md): a
// per-thread ring-buffer sink of completed spans, exported as Chrome
// trace-event JSON (load the file in chrome://tracing or Perfetto).
//
// Recording model.  Spans record on close as complete events (`ph: "X"`),
// so the sink never has to pair begin/end records: each event carries its
// own start timestamp and duration.  Every thread writes its own
// cache-line-separated ring (indexed by pmte::thread_index()), so
// recording inside parallel regions is wait-free and never contends;
// rings keep the most recent `capacity` events per thread (older ones are
// overwritten — a flight recorder, not a log).
//
// Thread-safety: record() is safe from any thread inside or outside
// parallel regions (each thread touches only its own ring; the OpenMP
// join barrier orders those writes before any post-region reader).
// configure_capacity() / clear() / write_chrome_trace() are serial-phase
// only — call them between batches, like every other Server mutation.
//
// Determinism: trace contents are wall-time and thread-schedule dependent
// by nature — they are an operator artefact, never an input to anything,
// and nothing in the export feeds back into algorithmic decisions (the
// bar documented in docs/DETERMINISM.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "src/parallel/parallel.hpp"

namespace pmte::obs {

/// One completed span.  `name`/`arg_name` must point at static-storage
/// strings (span sites are compile-time literals); `arg` < 0 means "no
/// numeric argument".
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;
  std::uint64_t ts_ns = 0;   ///< start, pmte::now_ns() domain
  std::uint64_t dur_ns = 0;
  std::int64_t arg = -1;
  std::uint32_t tid = 0;
};

class TraceSink {
 public:
  /// Resize every ring (existing events are discarded).  Serial only.
  void configure_capacity(std::size_t events_per_thread);

  /// Append one completed event to the calling thread's ring.  `tid` must
  /// be pmte::thread_index() of the caller.
  void record(std::uint32_t tid, const TraceEvent& ev) noexcept;

  /// Merge all rings and emit Chrome trace-event JSON: complete ("X")
  /// events sorted by timestamp (ties broken tid then longest-first so
  /// enclosing spans precede their children), timestamps rebased to the
  /// earliest event and expressed in microseconds at nanosecond precision.
  /// One event per line — line-oriented consumers (tests, the CI
  /// validator) can parse without a full JSON reader.  Serial only.
  void write_chrome_trace(std::ostream& os) const;

  /// Drop all recorded events (capacity retained).  Serial only.
  void clear();

  /// Events not recorded because the thread index was kMaxThreads or more.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Events overwritten in a full ring by a newer one of the same thread.
  /// Like dropped(), a count over the sink's life: clear() and
  /// configure_capacity() keep it.  Serial only.
  [[nodiscard]] std::uint64_t overwritten() const noexcept;

  /// Events currently resident across all rings.
  [[nodiscard]] std::size_t num_events() const;

 private:
  struct alignas(64) Ring {
    std::vector<TraceEvent> buf;  ///< allocated lazily, sized capacity_
    std::size_t next = 0;
    bool wrapped = false;
    std::uint64_t overwritten = 0;  ///< events lost to the wrap
  };

  std::vector<Ring> rings_ = std::vector<Ring>(kMaxThreads);
  std::size_t capacity_ = std::size_t{1} << 12;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace pmte::obs
