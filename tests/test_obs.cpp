// Observability-layer contracts (src/obs/, docs/OBSERVABILITY.md):
//
//   * histogram bucket counts are a pure function of the recorded
//     multiset — bit-identical at 1/2/8 threads (the quantity tests and
//     CI may compare; wall-time *values* never are);
//   * the registry canonicalises label order and exports byte-stable
//     Prometheus text exposition with valid histogram series;
//   * spans record complete trace events from inside nested
//     parallel_for_balanced regions, one per-thread ring each;
//   * and the load-bearing one: turning the runtime switches on changes
//     no served double and no logical counter — BatchStats,
//     TenantCounters, and result_hash32 are bit-identical with the obs
//     layer off, metrics on, and metrics+trace on.
//
// The suite carries the `tsan-par` CTest label: concurrent histogram
// recording and per-thread ring writes run under ThreadSanitizer at 8
// threads in CI.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace pmte {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(ObsHistogram, Log2BucketPlacementAndBounds) {
  obs::Histogram h;
  // bit_width: 0 → bucket 0, 1 → 1, 2..3 → 2, 4..7 → 3, ...
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(7);
  h.record((std::uint64_t{1} << 40));
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(41), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 7 + (std::uint64_t{1} << 40));
  // Every recorded value is ≤ the inclusive upper bound of its bucket and
  // > the bound of the previous one.
  EXPECT_EQ(obs::Histogram::bucket_le(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_le(3), 7u);
  EXPECT_EQ(obs::Histogram::bucket_le(64), ~std::uint64_t{0});
}

TEST(ObsHistogram, PercentileWalksCumulativeCounts) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.record(3);    // bucket 2, le 3
  for (int i = 0; i < 10; ++i) h.record(200);  // bucket 8, le 255
  EXPECT_EQ(h.percentile(0.50), 3u);
  EXPECT_EQ(h.percentile(0.90), 3u);
  EXPECT_EQ(h.percentile(0.95), 255u);
  EXPECT_EQ(h.percentile(0.99), 255u);
}

TEST(ObsHistogram, BucketCountsAreThreadCountInvariant) {
  // The determinism contract: the same multiset of logical values —
  // recorded concurrently under any thread count — yields bit-identical
  // bucket counts.  The recorded value depends only on the index, never
  // on time or scheduling.
  const ThreadGuard guard;
  const std::size_t n = 20000;
  std::array<std::uint64_t, obs::Histogram::kBuckets> reference{};
  bool have_reference = false;
  for (const int threads : kThreadCounts) {
    set_num_threads(threads);
    obs::Histogram h;
    parallel_for_balanced(
        n, [](std::size_t i) { return (i * 31) % 97; },
        [&](std::size_t i) { h.record((i * i) % 4093); });
    const auto snap = h.snapshot();
    EXPECT_EQ(h.count(), n);
    if (!have_reference) {
      reference = snap;
      have_reference = true;
    } else {
      EXPECT_EQ(snap, reference) << "threads " << threads;
    }
  }
}

TEST(ObsRegistry, LabelOrderIsCanonicalised) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("test_labels_total",
                        {{"tenant", "3"}, {"policy", "min"}});
  auto& b = reg.counter("test_labels_total",
                        {{"policy", "min"}, {"tenant", "3"}});
  EXPECT_EQ(&a, &b);  // same series regardless of label order
  auto& c = reg.counter("test_labels_total",
                        {{"policy", "median"}, {"tenant", "3"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, ResetKeepsHandlesValid) {
  obs::MetricsRegistry reg;
  auto& ctr = reg.counter("test_reset_total");
  auto& h = reg.histogram("test_reset_sizes");
  ctr.add(5);
  h.record(9);
  reg.reset();
  EXPECT_EQ(ctr.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  ctr.add(2);  // the handle still points at the registered instrument
  EXPECT_EQ(reg.counter("test_reset_total").value(), 2u);
}

TEST(ObsRegistry, PrometheusExpositionGrammar) {
  obs::MetricsRegistry reg;
  reg.counter("test_requests_total", {{"tenant", "0"}}, "requests").add(7);
  reg.counter("test_requests_total", {{"tenant", "1"}}, "requests").add(3);
  reg.gauge("test_resident", {}, "resident things").set(-2);
  auto& h = reg.histogram("test_sizes", {}, "batch sizes");
  h.record(0);
  h.record(5);
  h.record(1000);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();

  // One # HELP/# TYPE pair per family even with several series.
  auto count_of = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE test_requests_total counter"), 1u);
  EXPECT_EQ(count_of("# TYPE test_resident gauge"), 1u);
  EXPECT_EQ(count_of("# TYPE test_sizes histogram"), 1u);
  EXPECT_NE(text.find("test_requests_total{tenant=\"0\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{tenant=\"1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_resident -2"), std::string::npos);
  // Histogram series: cumulative buckets end at +Inf == _count, plus _sum.
  EXPECT_NE(text.find("test_sizes_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_sizes_count 3"), std::string::npos);
  EXPECT_NE(text.find("test_sizes_sum 1005"), std::string::npos);

  // Byte-stable: a registry populated in a different order exports the
  // identical text.
  obs::MetricsRegistry reg2;
  auto& h2 = reg2.histogram("test_sizes", {}, "batch sizes");
  reg2.gauge("test_resident", {}, "resident things").set(-2);
  reg2.counter("test_requests_total", {{"tenant", "1"}}, "requests").add(3);
  reg2.counter("test_requests_total", {{"tenant", "0"}}, "requests").add(7);
  h2.record(1000);
  h2.record(5);
  h2.record(0);
  std::ostringstream os2;
  reg2.write_prometheus(os2);
  EXPECT_EQ(text, os2.str());
}

TEST(ObsTrace, RingKeepsMostRecentEvents) {
  obs::TraceSink sink;
  sink.configure_capacity(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record(0, obs::TraceEvent{"ev", nullptr, 100 + i, 1,
                                   static_cast<std::int64_t>(i), 0});
  }
  EXPECT_EQ(sink.num_events(), 4u);  // flight recorder: last 4 survive
  EXPECT_EQ(sink.overwritten(), 6u);  // and the 6 older ones are counted
  EXPECT_EQ(sink.dropped(), 0u);
  sink.record(static_cast<std::uint32_t>(kMaxThreads),
              obs::TraceEvent{"ev"});
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.overwritten(), 6u);
  sink.clear();
  EXPECT_EQ(sink.num_events(), 0u);
  EXPECT_EQ(sink.overwritten(), 6u);  // losses stay counted
}

/// Restores the obs layer to its all-off default and drops recorded
/// events, so tests never leak runtime state into each other.
class ObsGuard {
 public:
  ObsGuard() = default;
  ~ObsGuard() {
    obs::configure({});
    obs::trace_sink().clear();
  }
  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;
};

TEST(ObsSpan, InactiveWhenEverythingOff) {
  const ObsGuard guard;
  obs::trace_sink().clear();
  {
    PMTE_OBS_SPAN("obs_test.off", 7, "arg");
  }
  EXPECT_EQ(obs::trace_sink().num_events(), 0u);
}

TEST(ObsSpan, NestedSpansUnderNestedParallelFor) {
  const ObsGuard guard;
  const ThreadGuard threads;
  set_num_threads(8);
  obs::ObsConfig cfg;
  cfg.trace = true;
  obs::configure(cfg);
  obs::trace_sink().clear();

  constexpr std::size_t kOuter = 8, kInner = 8;
  std::atomic<std::uint64_t> sink{0};
  {
    PMTE_OBS_SPAN("obs_test.root");
    parallel_for_balanced(
        kOuter, [](std::size_t) { return 1; },
        [&](std::size_t o) {
          PMTE_OBS_SPAN("obs_test.outer", static_cast<std::int64_t>(o),
                        "outer");
          parallel_for_balanced(
              kInner, [](std::size_t) { return 1; },
              [&](std::size_t i) {
                PMTE_OBS_SPAN("obs_test.inner",
                              static_cast<std::int64_t>(i), "inner");
                sink.fetch_add(o * kInner + i, std::memory_order_relaxed);
              });
        });
  }
  obs::configure({});

  EXPECT_EQ(obs::trace_sink().dropped(), 0u);
  EXPECT_EQ(obs::trace_sink().num_events(), 1 + kOuter + kOuter * kInner);

  std::ostringstream os;
  obs::trace_sink().write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u);
  std::size_t events = 0, inner = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    ++events;  // one complete event per line
    if (line.find("\"name\":\"obs_test.inner\"") != std::string::npos) {
      ++inner;
      EXPECT_NE(line.find("\"args\":{\"inner\":"), std::string::npos);
    }
  }
  EXPECT_EQ(events, 1 + kOuter + kOuter * kInner);
  EXPECT_EQ(inner, kOuter * kInner);
}

TEST(ObsTrace, LossesAreExportedAsMetric) {
  const ObsGuard guard;
  obs::configure(obs::ObsConfig{.trace = true, .trace_events_per_thread = 2});
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::trace_sink().record(0, obs::TraceEvent{"ev", nullptr, i, 1, -1, 0});
  }
  obs::publish_trace_losses();
  std::ostringstream os;
  obs::registry().write_prometheus(os);
  const std::string text = os.str();
  const auto series = [&](const std::string& reason, std::uint64_t value) {
    return "pmte_trace_events_lost_total{reason=\"" + reason + "\"} " +
           std::to_string(value) + "\n";
  };
  EXPECT_NE(text.find(series("thread_index", obs::trace_sink().dropped())),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find(series("ring_overwrite", obs::trace_sink().overwritten())),
      std::string::npos)
      << text;
  EXPECT_GE(obs::trace_sink().overwritten(), 3u);
}

// ---------------------------------------------------------------------------
// The on/off differential: enabling the obs layer at runtime must not
// change a single served bit or logical counter.

Graph test_graph() {
  Rng rng(4242);
  return make_gnm(256, 1024, {1.0, 9.0}, rng);
}

serve::EnsembleOptions ensemble_options() {
  serve::EnsembleOptions opts;
  opts.trees = 4;
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

::testing::AssertionResult bits_equal(const std::vector<Weight>& a,
                                      const std::vector<Weight>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) != 0) {
    return ::testing::AssertionFailure() << "served doubles differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(ObsDifferential, BatchStatsAndOutputsIdenticalOnAndOff) {
  const ObsGuard guard;
  const auto g = test_graph();
  const auto e = serve::FrtEnsemble::build(g, 9001, ensemble_options());
  serve::WorkloadOptions wopts;
  wopts.pairs = 20000;
  Rng wrng(9002);
  const auto workload =
      serve::make_workload(g, serve::WorkloadKind::zipf, wopts, wrng);

  struct Run {
    std::vector<Weight> out;
    serve::FrtEnsemble::BatchStats stats;
  };
  auto run_once = [&] {
    Run r;
    r.stats = e.query_batch(workload, serve::AggregatePolicy::min, r.out);
    return r;
  };

  obs::configure({});
  const Run off = run_once();
  obs::ObsConfig metrics_cfg;
  metrics_cfg.metrics = true;
  obs::configure(metrics_cfg);
  const Run metrics = run_once();
  obs::ObsConfig full_cfg;
  full_cfg.metrics = true;
  full_cfg.trace = true;
  obs::configure(full_cfg);
  const Run full = run_once();
  obs::configure({});

  for (const Run* r : {&metrics, &full}) {
    EXPECT_TRUE(bits_equal(off.out, r->out));
    EXPECT_EQ(off.stats.pairs, r->stats.pairs);
    EXPECT_EQ(off.stats.tree_lookups, r->stats.tree_lookups);
    EXPECT_EQ(off.stats.lca_probes, r->stats.lca_probes);
    EXPECT_EQ(off.stats.cache_hits, r->stats.cache_hits);
    EXPECT_EQ(off.stats.cache_misses, r->stats.cache_misses);
    EXPECT_EQ(off.stats.cache_admissions, r->stats.cache_admissions);
    EXPECT_EQ(off.stats.cache_conflicts, r->stats.cache_conflicts);
  }
}

TEST(ObsDifferential, TenantCountersAndHashIdenticalOnAndOff) {
  const ObsGuard guard;
  const auto g = test_graph();
  constexpr std::size_t kTenants = 4, kBatches = 4, kSwapAt = 2;

  std::vector<serve::TenantStreamSpec> specs(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    specs[t].kind = (t % 2 == 0) ? serve::WorkloadKind::zipf
                                 : serve::WorkloadKind::uniform;
    specs[t].opts.pairs = 5000;
    specs[t].opts.zipf_s = 1.2;
  }
  const auto stream = serve::make_multi_tenant_workload(g, specs, 9003);

  struct Run {
    std::vector<Weight> out;
    std::vector<serve::TenantCounters> counters;
  };
  // A fresh Server per run: tenant state is cumulative, and the swap
  // exercises the server.swap span site as well as the phase spans.
  auto run_scenario = [&] {
    serve::Server server;
    const auto fp_a =
        server.load(serve::FrtEnsemble::build(g, 9001, ensemble_options()));
    const auto fp_b =
        server.load(serve::FrtEnsemble::build(g, 9004, ensemble_options()));
    for (std::size_t t = 0; t < kTenants; ++t) {
      serve::TenantConfig cfg;
      cfg.ensemble = fp_a;
      cfg.policy = (t < 2) ? serve::AggregatePolicy::min
                           : serve::AggregatePolicy::median;
      cfg.cache_capacity = 1 << 10;
      server.add_tenant(cfg);
    }
    Run r;
    std::vector<Weight> batch_out;
    for (std::size_t b = 0; b < kBatches; ++b) {
      if (b == kSwapAt) server.stage_swap(0, fp_b);
      const std::size_t lo = stream.size() * b / kBatches;
      const std::size_t hi = stream.size() * (b + 1) / kBatches;
      server.serve(std::span(stream).subspan(lo, hi - lo), batch_out);
      r.out.insert(r.out.end(), batch_out.begin(), batch_out.end());
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      r.counters.push_back(server.counters(static_cast<serve::TenantId>(t)));
    }
    return r;
  };

  obs::configure({});
  const Run off = run_scenario();
  obs::ObsConfig full_cfg;
  full_cfg.metrics = true;
  full_cfg.trace = true;
  obs::configure(full_cfg);
  const Run on = run_scenario();
  obs::configure({});

  EXPECT_TRUE(bits_equal(off.out, on.out));
  ASSERT_EQ(off.counters.size(), on.counters.size());
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto& a = off.counters[t];
    const auto& b = on.counters[t];
    EXPECT_EQ(a.batches, b.batches) << "tenant " << t;
    EXPECT_EQ(a.pairs, b.pairs) << "tenant " << t;
    EXPECT_EQ(a.tree_lookups, b.tree_lookups) << "tenant " << t;
    EXPECT_EQ(a.lca_probes, b.lca_probes) << "tenant " << t;
    EXPECT_EQ(a.cache_hits, b.cache_hits) << "tenant " << t;
    EXPECT_EQ(a.cache_misses, b.cache_misses) << "tenant " << t;
    EXPECT_EQ(a.cache_admissions, b.cache_admissions) << "tenant " << t;
    EXPECT_EQ(a.cache_conflicts, b.cache_conflicts) << "tenant " << t;
    EXPECT_EQ(a.epoch, b.epoch) << "tenant " << t;
    EXPECT_EQ(a.result_hash64, b.result_hash64) << "tenant " << t;
    EXPECT_EQ(a.result_hash32(), b.result_hash32()) << "tenant " << t;
  }
}

}  // namespace
}  // namespace pmte
