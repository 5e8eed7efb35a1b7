// Lifecycle benchmark binary: runs one workload of the pmte life cycle
// (generate → build → save → load_mapped → serve → update → republish) in
// one process, with one caller thread issuing calls back-to-back and a fixed
// OpenMP thread count, and writes its raw measurements as JSON.  run.py
// builds this binary, turns the raw samples into the reported metrics, and
// prints the result line; see README.md in this directory.
//
//   lifecycle --workload build_oracle|serve_read|serve_update --seed N
//             --seconds S --trace 0|1 --threads T --work-dir DIR
//             --raw-out FILE
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// instead runs each workload decomposed into calls to the layers' public
// functions, each wrapped in an obs::ScopedSpan named "layer.<layer>", and
// writes the Chrome trace (with the library's own spans) next to the raw
// file; run.py folds it into the per-layer table.  Every correctness check
// is counted; a mismatch is recorded as a failure, never skipped.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/frt/frt_tree.hpp"
#include "src/frt/le_lists.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/hopset/hopset.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/server.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/serve/workloads.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

// A span around one call into a layer, named "layer.<name>".  Compiles to
// nothing at PMTE_OBS=0 (the traced run then refuses to start).
#define LCB_LAYER(name) PMTE_OBS_SPAN("layer." name)

namespace lcb {

using pmte::Graph;
using pmte::Rng;
using pmte::Timer;
using pmte::Vertex;
using pmte::Weight;
using pmte::serve::AggregatePolicy;
using pmte::serve::FrtEnsemble;
using Pairs = std::vector<std::pair<Vertex, Vertex>>;

// split_seed streams of the workload seed.  Streams 0..k feed the ensemble
// build (the workload seed is the master seed); these sit in the range
// docs/ARCHITECTURE.md reserves for non-tree consumers, clear of the
// serving CLI's and the tenant generator's streams.
constexpr std::uint64_t kGraphStream = std::uint64_t{1} << 34;
constexpr std::uint64_t kQueryStream = kGraphStream + 1;
constexpr std::uint64_t kUpdateStream = kGraphStream + 2;
constexpr std::uint64_t kTenantStream = kGraphStream + 3;
// Seeds of the extra build inputs: input i >= 1 uses split_seed(seed,
// kInputStream + i) as its graph and master seed.
constexpr std::uint64_t kInputStream = kGraphStream + 16;

constexpr int kSetupReps = 5;     // set-ups per run; setup_s is their median
constexpr int kLoadReps = 200;    // load_mapped calls per run
// Batches of a measured query stream: 1,100 leave >= 10 samples beyond p99.
constexpr std::size_t kStreamBatches = 1100;
// Batches of the short check stream of untraced build_oracle runs.
constexpr std::size_t kCheckBatches = 128;
// Trace ring per thread: a traced run records a few 10^4 events per thread
// at most, so no ring wraps (run.py fails the run if one fills up).
constexpr std::size_t kTraceRing = std::size_t{1} << 17;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  int threads = 2;
  std::string work_dir = ".";
  std::string raw_out;
};

// --- Raw report ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Everything one run measured: timing samples, scalar values and logical
/// counts, run-fingerprint strings, and the check ledger.
class Report {
 public:
  void sample(const std::string& key, double v) { samples_[key].push_back(v); }
  void set(const std::string& key, double v) { values_[key] = v; }
  void add(const std::string& key, double v) { values_[key] += v; }
  void raise(const std::string& key, double v) {
    values_[key] = std::max(values_[key], v);
  }
  void info(const std::string& key, const std::string& v) { info_[key] = v; }
  void ops(std::uint64_t n = 1) { ops_ += n; }

  /// One correctness check: counted as an operation, a failure if !ok.
  bool check(const std::string& name, bool ok, const std::string& detail) {
    ++checks_;
    if (!ok) {
      failures_.push_back(name + ": " + detail);
      std::cerr << "CHECK FAILED: " << name << ": " << detail << '\n';
    }
    return ok;
  }

  /// Take over another report's operations and checks (its samples stay
  /// behind): a baseline pass counts towards the run's ledger too.
  void merge_ledger(const Report& other) {
    ops_ += other.ops_;
    checks_ += other.checks_;
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
  }

  void write(std::ostream& os) const {
    os.precision(17);
    os << "{\"ops\":" << ops_ << ",\"checks\":" << checks_
       << ",\"failed\":" << failures_.size() << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? "," : "") << '"' << json_escape(failures_[i]) << '"';
    }
    os << "],\"info\":{";
    const char* sep = "";
    for (const auto& [k, v] : info_) {
      os << sep << '"' << k << "\":\"" << json_escape(v) << '"';
      sep = ",";
    }
    os << "},\"values\":{";
    sep = "";
    for (const auto& [k, v] : values_) {
      os << sep << '"' << k << "\":" << v;
      sep = ",";
    }
    os << "},\"samples\":{";
    sep = "";
    for (const auto& [k, vs] : samples_) {
      os << sep << '"' << k << "\":[";
      for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? "," : "") << vs[i];
      os << ']';
      sep = ",";
    }
    os << "}}\n";
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  std::uint64_t ops_ = 0;
  std::uint64_t checks_ = 0;
};

// --- Helpers ---------------------------------------------------------------

/// FNV-1a over the bit patterns of served values (the fold TenantCounters
/// uses), reduced to 32 bits.
std::uint64_t fold_values(std::uint64_t h, const std::vector<Weight>& out) {
  for (const double d : out) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = pmte::fnv1a_fold(h, bits);
  }
  return h;
}
std::uint64_t fold32(std::uint64_t h) {
  return (h >> 32) ^ (h & 0xffffffffULL);
}
std::uint64_t hash32(const std::vector<Weight>& out) {
  return fold32(fold_values(pmte::kFnv1aInit, out));
}

bool same_bits(const std::vector<Weight>& a, const std::vector<Weight>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) == 0);
}

/// Peak resident set (VmHWM) of this process in MB (10^6 bytes).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Served-value hashes pinned for the default seed, one per workload:
/// build_oracle's verification batch, serve_read's first stream pass, and
/// serve_update's fold of every tenant's result_hash32 after the first
/// kPinUpdates updates.  A change that alters a served bit fails here.
struct Pin {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t hash;
};
constexpr Pin kPins[] = {
    {"build_oracle", 1, 0xf44e917d},
    {"serve_read", 1, 0x47a519fc},
    {"serve_update", 1, 0x1127a116},
};

void check_pin(Report& rep, const Options& o, std::uint64_t hash) {
  rep.info("served_hash", hex(hash));
  for (const Pin& p : kPins) {
    if (o.workload == p.workload && o.seed == p.seed) {
      rep.check("served hash matches the pin for seed " +
                    std::to_string(p.seed),
                hash == p.hash, "got " + hex(hash) + ", pinned " + hex(p.hash));
      return;
    }
  }
  rep.info("served_hash_pin", "none for this seed (cross-path checks only)");
}

Graph make_graph(Vertex n, std::uint64_t seed) {
  LCB_LAYER("graph.generate");
  return pmte::make_gnm(n, 3 * std::size_t{n}, pmte::WeightModel{1.0, 4.0},
                        Rng(pmte::split_seed(seed, kGraphStream)));
}

// --- Build inputs ----------------------------------------------------------
// One build's time swings by ±25% with the graph and tree sample its seed
// draws (at 2 threads, 8.4–13.4 s over seeds 1–5 on gnm n=2048, each seed
// within 7% of itself).  So build_s is taken over several inputs of one
// run seed: input 0 is the workload's own graph with the run seed as master
// seed, input i >= 1 a graph of the same family drawn from its own seed.
// The host's speed also drifts by ±20% over tens of seconds, so the builds
// are spread over the whole run rather than timed in one stretch.

std::uint64_t input_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : pmte::split_seed(seed, kInputStream + i);
}

/// Build times per input; build_s is the mean of the per-input medians.
class BuildTimes {
 public:
  explicit BuildTimes(std::size_t inputs) : times_(inputs) {}

  void add(Report& rep, std::size_t input, double seconds) {
    times_[input].push_back(seconds);
    rep.sample("build_s", seconds);
    rep.ops();
  }

  /// Spread `rounds` rounds over the inputs across a loop that measures
  /// for `seconds`: call due() between its steps with the time spent so
  /// far, then finish() after it.
  template <typename Build>
  class Schedule {
   public:
    Schedule(BuildTimes& times, Report& rep, Vertex n, std::uint64_t seed,
             std::size_t rounds, double seconds, Build build)
        : times_(times), rep_(rep), n_(n), seed_(seed),
          total_(rounds * times.times_.size()), seconds_(seconds),
          build_(std::move(build)) {}

    void due(double spent) {
      while (next_ < total_ &&
             spent >= seconds_ * static_cast<double>(next_) /
                          static_cast<double>(total_)) {
        build_next();
      }
    }
    void finish() {
      while (next_ < total_) build_next();
    }

   private:
    /// Time `build(graph, master_seed)` on the next input in turn; its
    /// graph of n vertices is generated outside the timing.
    void build_next() {
      const std::size_t i = next_++ % times_.times_.size();
      const std::uint64_t s = input_seed(seed_, i);
      const Graph g = make_graph(n_, s);
      const Timer t;
      build_(g, s);
      times_.add(rep_, i, t.seconds());
    }

    BuildTimes& times_;
    Report& rep_;
    Vertex n_;
    std::uint64_t seed_;
    std::size_t total_;
    double seconds_;
    Build build_;
    std::size_t next_ = 0;
  };

  template <typename Build>
  Schedule<Build> schedule(Report& rep, Vertex n, std::uint64_t seed,
                           std::size_t rounds, double seconds, Build build) {
    return Schedule<Build>(*this, rep, n, seed, rounds, seconds, std::move(build));
  }

  void report(Report& rep) const {
    double sum = 0.0;
    for (auto v : times_) {
      if (v.empty()) throw std::logic_error("build input never timed");
      std::sort(v.begin(), v.end());
      const std::size_t m = v.size() / 2;
      sum += v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    }
    rep.set("build_s", sum / static_cast<double>(times_.size()));
    rep.set("build_inputs", static_cast<double>(times_.size()));
  }

 private:
  std::vector<std::vector<double>> times_;
};

std::vector<Pairs> make_pool(const Graph& g, std::uint64_t seed,
                             std::size_t batches, std::size_t pairs) {
  Rng rng(pmte::split_seed(seed, kQueryStream));
  pmte::serve::WorkloadOptions w;
  w.pairs = pairs;
  std::vector<Pairs> pool(batches);
  for (auto& b : pool) {
    b = pmte::serve::make_workload(g, pmte::serve::WorkloadKind::uniform, w,
                                   rng);
  }
  return pool;
}

pmte::serve::EnsembleOptions ensemble_options(
    std::size_t trees, pmte::serve::EnsemblePipeline pipeline) {
  pmte::serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = pipeline;
  return opts;
}

std::string artefact_path(const Options& o) {
  return o.work_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
         ".pmte";
}

std::uint64_t save(const FrtEnsemble& e, const std::string& path) {
  LCB_LAYER("serialize.save");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  e.save(os);
  os.flush();
  if (!os) throw std::runtime_error("cannot write " + path);
  return static_cast<std::uint64_t>(os.tellp());
}

/// load_mapped with its load-path counters checked: the mapping must serve
/// every bulk array in place.
FrtEnsemble load_mapped(Report& rep, const std::string& path,
                        const FrtEnsemble& expected) {
  pmte::serve::reset_load_path_counters();
  const Timer t;
  FrtEnsemble e = [&] {
    LCB_LAYER("serialize.load_mapped");
    return FrtEnsemble::load_mapped(path);
  }();
  rep.sample("load_mapped_ms", t.millis());
  rep.ops();
  const auto lp = pmte::serve::load_path_counters();
  rep.set("serialize.sections_mapped", static_cast<double>(lp.sections_mapped));
  rep.set("serialize.bulk_bytes_copied",
          static_cast<double>(lp.bulk_bytes_copied));
  rep.check("load_mapped copies no bulk bytes", lp.bulk_bytes_copied == 0,
            std::to_string(lp.bulk_bytes_copied) + " bytes copied");
  {
    LCB_LAYER("check.mapped_equal");
    rep.check("mapped ensemble == built ensemble", e == expected,
              "mapped artefact differs from the ensemble it was saved from");
  }
  return e;
}

/// Replace `slot` with a fresh mapped load.  The previous ensemble goes
/// first, so every load starts from the same allocator state (with two
/// alive at once, load times alternated between two modes).
void reload(Report& rep, std::optional<FrtEnsemble>& slot,
            const std::string& path, const FrtEnsemble& expected) {
  slot.reset();
  slot.emplace(load_mapped(rep, path, expected));
}

void stretch_check(Report& rep, const Graph& g, const FrtEnsemble& e) {
  LCB_LAYER("check.stretch");
  const auto q = pmte::serve::measure_stretch_quality(g, e, AggregatePolicy::min);
  rep.ops();
  rep.set("stretch_weighted", q.weighted_stretch);
  rep.check("dominance: min stretch >= 1", q.min_stretch >= 1.0,
            "min stretch " + std::to_string(q.min_stretch));
}

/// Hashes of every pool batch served by `e` (min policy, no cache) — the
/// reference a stream is checked against.
std::vector<std::uint64_t> reference_hashes(const FrtEnsemble& e,
                                            const std::vector<Pairs>& pool) {
  LCB_LAYER("check.reference");
  std::vector<std::uint64_t> ref;
  std::vector<Weight> out;
  for (const auto& b : pool) {
    (void)e.query_batch(b, AggregatePolicy::min, out);
    ref.push_back(hash32(out));
  }
  return ref;
}

/// Serve pool batches back-to-back from `e` (min policy, no cache) until
/// `budget_s` of query time and `min_batches` batches, stopping at
/// `max_batches`.  Every batch's values must hash to ref[b mod pool].
/// Records query_mqps; returns the query time in seconds.  `between(spent)`
/// runs after every batch, outside the query time.
template <typename Between = void (*)(double)>
double run_stream(Report& rep, const FrtEnsemble& e,
                  const std::vector<Pairs>& pool,
                  const std::vector<std::uint64_t>& ref, double budget_s,
                  std::size_t min_batches, std::size_t max_batches,
                  Between&& between = [](double) {}) {
  std::vector<Weight> out;
  double spent = 0.0;
  std::uint64_t pairs = 0, lookups = 0, probes = 0, mismatches = 0;
  std::size_t b = 0;
  for (; b < max_batches && (spent < budget_s || b < min_batches); ++b) {
    const Pairs& batch = pool[b % pool.size()];
    const Timer t;
    FrtEnsemble::BatchStats st;
    {
      LCB_LAYER("query.batch");
      st = e.query_batch(batch, AggregatePolicy::min, out);
    }
    const double s = t.seconds();
    spent += s;
    rep.sample("batch_us", s * 1e6);
    rep.ops();
    pairs += st.pairs;
    lookups += st.tree_lookups;
    probes += st.lca_probes;
    if (hash32(out) != ref[b % pool.size()]) ++mismatches;
    between(spent);
  }
  rep.check("every stream batch matches the reference pass", mismatches == 0,
            std::to_string(mismatches) + " of " + std::to_string(b) +
                " batches differ");
  rep.set("query.pairs", static_cast<double>(pairs));
  rep.set("query.tree_lookups", static_cast<double>(lookups));
  rep.set("query.lca_probes", static_cast<double>(probes));
  rep.set("query_mqps", static_cast<double>(pairs) / spent / 1e6);
  return spent;
}

Weight dist_hint(const Graph& g) {
  const Weight w = g.min_edge_weight();
  return pmte::is_finite(w) ? w : 1.0;
}

/// The per-tree half of FrtEnsemble::build, one layer call at a time:
/// split_seed(master, 1+t) → sample_beta → VertexOrder::random → LE lists
/// (`le_lists(order)`, which opens its own layer span) → FrtTree::build →
/// FrtIndex::build, in parallel_for over tree slots as the real build does,
/// then FrtEnsemble::assemble.  Oracle LE-list counters are the WorkDepth
/// deltas of the per-tree phase (only the LE lists count work there); the
/// counters add up over calls, so a workload reports its total.
template <typename LeLists>
FrtEnsemble build_trees(Report& rep, const Graph& g, std::uint64_t master,
                        const pmte::serve::EnsembleOptions& opts, Weight hint,
                        const char* prefix, LeLists&& le_lists) {
  const std::size_t k = opts.trees;
  std::vector<pmte::serve::FrtIndex> indices(k);
  std::vector<pmte::LeListsResult> meta(k);
  std::vector<std::size_t> longest(k, 0);
  const pmte::WorkDepthScope scope;
  pmte::parallel_for(
      k,
      [&](std::size_t t) {
        Rng rng(pmte::split_seed(master, 1 + t));
        const double beta = [&] {
          LCB_LAYER("frt.sample_beta");
          return pmte::sample_beta(rng);
        }();
        const pmte::VertexOrder order = [&] {
          LCB_LAYER("frt.vertex_order");
          return pmte::VertexOrder::random(g.num_vertices(), rng);
        }();
        pmte::LeListsResult le = le_lists(order);
        for (const auto& l : le.lists) longest[t] = std::max(longest[t], l.size());
        const pmte::FrtTree tree = [&] {
          LCB_LAYER("frt.tree_build");
          return pmte::FrtTree::build(le.lists, order, beta, hint, opts.frt.rule);
        }();
        indices[t] = [&] {
          LCB_LAYER("index.build");
          return pmte::serve::FrtIndex::build(tree);
        }();
        le.lists.clear();
        meta[t] = std::move(le);
      },
      /*grain=*/1);
  const std::string p = prefix;
  rep.add(p + ".semiring_ops", static_cast<double>(scope.work_delta()));
  rep.add(p + ".relaxations", static_cast<double>(scope.relaxations_delta()));
  rep.add(p + ".edges_touched", static_cast<double>(scope.edges_touched_delta()));
  double iters = 0, base = 0, full = 0, warm = 0, skipped = 0, nodes = 0;
  std::size_t longest_all = 0;
  for (std::size_t t = 0; t < k; ++t) {
    iters += meta[t].iterations;
    base += meta[t].base_iterations;
    full += meta[t].levels_full;
    warm += meta[t].levels_warm;
    skipped += meta[t].levels_skipped;
    nodes += static_cast<double>(indices[t].num_nodes());
    longest_all = std::max(longest_all, longest[t]);
  }
  rep.add(p + ".h_iterations", iters);
  rep.add(p + ".base_iterations", base);
  rep.add(p + ".levels_full", full);
  rep.add(p + ".levels_warm", warm);
  rep.add(p + ".levels_skipped", skipped);
  rep.raise(p + ".max_list_length", static_cast<double>(longest_all));
  rep.add("index.nodes", nodes);
  LCB_LAYER("ensemble.assemble");
  return FrtEnsemble::assemble(std::move(indices), master,
                               FrtEnsemble::fingerprint(g));
}

/// FrtEnsemble::build(g, master, opts) for the oracle pipeline, decomposed:
/// split_seed(master, 0) → build_hub_hopset → build_simulated_graph, then
/// build_trees with le_lists_oracle.
FrtEnsemble oracle_decomposed(Report& rep, const Graph& g, std::uint64_t master,
                              const pmte::serve::EnsembleOptions& opts) {
  LCB_LAYER("ensemble.build");
  Rng shared(pmte::split_seed(master, 0));
  const pmte::HopSet hopset = [&] {
    LCB_LAYER("hopset.build");
    return pmte::build_hub_hopset(g, opts.frt.hopset, shared);
  }();
  rep.add("hopset.edges", static_cast<double>(hopset.edges.size()));
  const pmte::SimulatedGraph h = [&] {
    LCB_LAYER("simgraph.build");
    return pmte::build_simulated_graph(
        g, hopset, pmte::resolve_eps_hat(opts.frt.eps_hat, g.num_vertices()),
        shared);
  }();
  return build_trees(rep, g, master, opts, dist_hint(h.base()), "oracle",
                     [&](const pmte::VertexOrder& order) {
                       LCB_LAYER("oracle.le_lists");
                       return pmte::le_lists_oracle(
                           h, order, opts.frt.max_iterations, opts.frt.mbf);
                     });
}

/// FrtEnsemble::build for the direct pipeline, decomposed the same way
/// with le_lists_iteration on G (no hop set, no H, no oracle).
FrtEnsemble direct_decomposed(Report& rep, const Graph& g, std::uint64_t master,
                              const pmte::serve::EnsembleOptions& opts) {
  LCB_LAYER("ensemble.build");
  return build_trees(rep, g, master, opts, dist_hint(g), "direct",
                     [&](const pmte::VertexOrder& order) {
                       LCB_LAYER("direct.le_lists");
                       return pmte::le_lists_iteration(
                           g, order, opts.frt.max_iterations);
                     });
}

#if PMTE_OBS
void start_trace() {
  pmte::obs::configure(pmte::obs::ObsConfig{
      .metrics = false, .trace = true, .trace_events_per_thread = kTraceRing});
}

/// Stop recording and write the Chrome trace next to the raw report.
void finish_trace(Report& rep, const Options& o, double untraced_s,
                  double traced_s) {
  pmte::obs::configure(pmte::obs::ObsConfig{
      .metrics = false, .trace = false, .trace_events_per_thread = kTraceRing});
  const auto& sink = pmte::obs::trace_sink();
  const std::string path = o.raw_out + ".trace.json";
  {
    std::ofstream os(path, std::ios::trunc);
    sink.write_chrome_trace(os);
    if (!os) throw std::runtime_error("cannot write " + path);
  }
  rep.info("trace_file", path);
  rep.set("trace.events", static_cast<double>(sink.num_events()));
  rep.set("trace.ring_capacity", static_cast<double>(kTraceRing));
  rep.set("trace.dropped_events", static_cast<double>(sink.dropped()));
  rep.check("trace dropped no events", sink.dropped() == 0,
            std::to_string(sink.dropped()) + " events dropped");
  rep.set("trace.untraced_s", untraced_s);
  rep.set("trace.traced_s", traced_s);
  rep.set("trace.overhead_s", traced_s - untraced_s);
}
#else
void start_trace() {}
void finish_trace(Report&, const Options&, double, double) {}
#endif

// --- build_oracle ----------------------------------------------------------
// gnm n=1024, m=3n, U[1,4], k=8 trees, oracle pipeline (the paper's P-H),
// on kOracleInputs graphs of the run seed.

constexpr Vertex kOracleN = 1024;
constexpr std::size_t kOracleTrees = 8;
constexpr std::size_t kOracleInputs = 12;
constexpr std::size_t kQueryPairs = 16384;

void build_oracle(const Options& o, Report& rep) {
  const auto opts =
      ensemble_options(kOracleTrees, pmte::serve::EnsemblePipeline::oracle);
  std::vector<Graph> graphs(kOracleInputs);
  std::vector<Pairs> pool;
  // A set-up here takes ~50 ms, so many repetitions steady its median.
  for (int r = 0; r < 4 * kSetupReps; ++r) {
    const Timer t;
    for (std::size_t i = 0; i < kOracleInputs; ++i) {
      graphs[i] = make_graph(kOracleN, input_seed(o.seed, i));
    }
    pool = make_pool(graphs[0], o.seed, 32, kQueryPairs);
    rep.sample("setup_s", t.seconds());
  }
  const Graph& g = graphs[0];
  const std::string path = artefact_path(o);
  std::vector<Weight> out;

  if (o.trace) {
    // Every input is built untraced, then decomposed traced, as the
    // untraced run builds them all; the layer counters sum over inputs.
    std::vector<FrtEnsemble> built;
    const Timer ut;
    for (std::size_t i = 0; i < kOracleInputs; ++i) {
      built.push_back(FrtEnsemble::build(graphs[i], input_seed(o.seed, i), opts));
    }
    const double untraced_s = ut.seconds();
    start_trace();
    double traced_s = 0.0;
    std::optional<FrtEnsemble> dec;
    for (std::size_t i = 0; i < kOracleInputs; ++i) {
      const std::uint64_t s = input_seed(o.seed, i);
      const Graph gi = make_graph(kOracleN, s);
      rep.check("regenerated graph is identical",
                FrtEnsemble::fingerprint(gi) == FrtEnsemble::fingerprint(graphs[i]),
                "graph fingerprint differs, input " + std::to_string(i));
      const Timer tt;
      dec.emplace(oracle_decomposed(rep, gi, s, opts));
      traced_s += tt.seconds();
      rep.ops();
      rep.check("decomposed ensemble == FrtEnsemble::build", *dec == built[i],
                "layer-by-layer build differs from the library build, input " +
                    std::to_string(i));
      if (i == 0) {
        rep.set("serialize.artefact_bytes", static_cast<double>(save(*dec, path)));
      }
    }
    std::optional<FrtEnsemble> mapped;
    for (int r = 0; r < kLoadReps; ++r) reload(rep, mapped, path, built[0]);
    const auto ref = reference_hashes(built[0], pool);
    (void)run_stream(rep, *mapped, pool, ref, 0.0, kStreamBatches, kStreamBatches);
    finish_trace(rep, o, untraced_s, traced_s);
    std::remove(path.c_str());
    return;
  }

  // Timed part: back-to-back FrtEnsemble::build calls, input after input,
  // until every input is built and the run length has passed; then a short
  // check stream on the mapped artefact of input 0's first build.
  BuildTimes times(kOracleInputs);
  double spent = 0.0, last = 0.0;
  std::optional<FrtEnsemble> first;
  std::vector<std::uint64_t> hashes(kOracleInputs);
  std::size_t builds = 0;
  while (builds < kOracleInputs || spent + last <= o.seconds) {
    const std::size_t i = builds % kOracleInputs;
    const Timer t;
    FrtEnsemble e = FrtEnsemble::build(graphs[i], input_seed(o.seed, i), opts);
    last = t.seconds();
    spent += last;
    times.add(rep, i, last);
    (void)e.query_batch(pool[0], AggregatePolicy::min, out);
    if (builds < kOracleInputs) {
      hashes[i] = hash32(out);
    } else {
      rep.check("repeated build serves identical values",
                hash32(out) == hashes[i],
                "input " + std::to_string(i) + ", build " + std::to_string(builds));
    }
    if (!first) first.emplace(std::move(e));
    ++builds;
  }
  times.report(rep);
  const std::uint64_t first_hash = hashes[0];
  const FrtEnsemble& built = *first;
  const std::uint64_t bytes = save(built, path);
  rep.set("artefact_mb", static_cast<double>(bytes) / 1e6);
  std::optional<FrtEnsemble> mapped;
  for (int r = 0; r < kLoadReps; ++r) reload(rep, mapped, path, built);
  const auto ref = reference_hashes(built, pool);
  (void)run_stream(rep, *mapped, pool, ref, 0.0, kCheckBatches, kCheckBatches);
  stretch_check(rep, g, built);
  check_pin(rep, o, first_hash);
  std::remove(path.c_str());
}

// --- serve_read ------------------------------------------------------------
// gnm n=4096, m=3n, k=8, direct pipeline; the timed part serves 16,384
// uniform pairs per FrtEnsemble::query_batch (min policy, no cache) from
// the load_mapped artefact.  Bypasses the oracle, the cache and the router.

constexpr Vertex kReadN = 4096;
constexpr std::size_t kReadTrees = 8;
constexpr std::size_t kReadPool = 64;
constexpr std::size_t kReadInputs = 8;
constexpr std::size_t kReadBuildRounds = 2;

void serve_read(const Options& o, Report& rep) {
  const auto opts =
      ensemble_options(kReadTrees, pmte::serve::EnsemblePipeline::direct);
  const std::string path = artefact_path(o);
  const int setups = o.trace ? 1 : kSetupReps;
  Graph g;
  std::optional<FrtEnsemble> built, mapped;
  std::vector<Pairs> pool;
  std::uint64_t bytes = 0;
  for (int r = 0; r < setups; ++r) {
    const Timer t;
    g = make_graph(kReadN, o.seed);
    built.emplace(FrtEnsemble::build(g, o.seed, opts));
    rep.ops();
    bytes = save(*built, path);
    reload(rep, mapped, path, *built);
    pool = make_pool(g, o.seed, kReadPool, kQueryPairs);
    rep.sample("setup_s", t.seconds());
  }
  rep.set("artefact_mb", static_cast<double>(bytes) / 1e6);
  const auto ref = reference_hashes(*built, pool);
  std::uint64_t stream_hash = pmte::kFnv1aInit;
  for (const std::uint64_t h : ref) stream_hash = pmte::fnv1a_fold(stream_hash, h);

  if (o.trace) {
    Report baseline;  // untraced pass: its timings only set the overhead
    const double untraced_s =
        run_stream(baseline, *mapped, pool, ref, 0.0, kStreamBatches, kStreamBatches);
    rep.merge_ledger(baseline);
    start_trace();
    const Graph g2 = make_graph(kReadN, o.seed);
    rep.check("regenerated graph is identical",
              FrtEnsemble::fingerprint(g2) == FrtEnsemble::fingerprint(g),
              "graph fingerprint differs");
    const FrtEnsemble dec = direct_decomposed(rep, g2, o.seed, opts);
    rep.ops();
    rep.check("decomposed ensemble == FrtEnsemble::build", dec == *built,
              "layer-by-layer build differs from the library build");
    rep.set("serialize.artefact_bytes", static_cast<double>(save(dec, path)));
    for (int r = 0; r < kLoadReps; ++r) reload(rep, mapped, path, *built);
    const double traced_s =
        run_stream(rep, *mapped, pool, ref, 0.0, kStreamBatches, kStreamBatches);
    finish_trace(rep, o, untraced_s, traced_s);
    std::remove(path.c_str());
    return;
  }

  for (int r = 0; r < kLoadReps; ++r) reload(rep, mapped, path, *built);
  // build_s: direct builds of the inputs, spread over the stream.
  BuildTimes times(kReadInputs);
  auto builds = times.schedule(
      rep, kReadN, o.seed, kReadBuildRounds, o.seconds,
      [&](const Graph& gi, std::uint64_t s) { (void)FrtEnsemble::build(gi, s, opts); });
  (void)run_stream(rep, *mapped, pool, ref, o.seconds, kStreamBatches, 1 << 22,
                   [&](double spent) { builds.due(spent); });
  builds.finish();
  times.report(rep);
  stretch_check(rep, g, *mapped);
  check_pin(rep, o, fold32(stream_hash));
  std::remove(path.c_str());
}

// --- serve_update ----------------------------------------------------------
// gnm n=1024, m=3n, k=4, DynamicEnsemble + Server with 4 tenants.  Each
// update cycle: one seeded edge-weight update (3 decreases per increase),
// snapshot() → Server::load → stage_swap on every tenant, then 16
// interleaved batches of 8,192 queries.

constexpr Vertex kUpdateN = 1024;
constexpr std::size_t kUpdateTrees = 4;
constexpr std::size_t kTenantBatch = 8192;
constexpr std::size_t kTenantPool = 64;
constexpr std::size_t kBatchesPerUpdate = 16;
constexpr std::size_t kCacheSlots = 4096;
constexpr std::size_t kPinUpdates = 8;
// 64 cycles × 16 batches keeps ≥ 10 batch samples beyond p99.
constexpr std::size_t kMinUpdates = 64;
constexpr std::size_t kTraceUpdates = 12;  // overhead baseline section
constexpr int kUpdateSetups = 3;  // a set-up builds the DynamicEnsemble
constexpr std::size_t kUpdateInputs = 12;

struct TenantSpec {
  pmte::serve::WorkloadKind kind;
  AggregatePolicy policy;
  bool cached;
};
constexpr TenantSpec kTenants[] = {
    {pmte::serve::WorkloadKind::zipf, AggregatePolicy::min, true},
    {pmte::serve::WorkloadKind::zipf, AggregatePolicy::median, true},
    {pmte::serve::WorkloadKind::uniform, AggregatePolicy::min, false},
    {pmte::serve::WorkloadKind::bfs_local, AggregatePolicy::median, false},
};
constexpr std::size_t kNumTenants = std::size(kTenants);

/// The serving stack of serve_update: maintained ensemble, server, tenant
/// batch pool and the seeded update sequence.
struct UpdateRig {
  Graph g;
  std::vector<pmte::WeightedEdge> edges;
  std::unique_ptr<pmte::serve::DynamicEnsemble> dyn;
  std::unique_ptr<pmte::serve::Server> server;
  std::vector<std::vector<pmte::serve::TenantQuery>> pool;
  Rng updates;
  std::size_t applied = 0;
  std::size_t cursor = 0;
  double serve_s = 0.0;  ///< wall time inside Server::serve
  std::vector<Weight> out;
};

std::unique_ptr<pmte::serve::DynamicEnsemble> make_dynamic(const Graph& g,
                                                          std::uint64_t seed) {
  LCB_LAYER("dynamic.build");
  return std::make_unique<pmte::serve::DynamicEnsemble>(
      g, seed,
      ensemble_options(kUpdateTrees, pmte::serve::EnsemblePipeline::oracle));
}

std::unique_ptr<UpdateRig> make_rig(Report& rep, const Options& o,
                                    const std::string& path) {
  auto rig = std::make_unique<UpdateRig>();
  rig->g = make_graph(kUpdateN, o.seed);
  rig->edges = rig->g.edge_list();
  rig->updates = Rng(pmte::split_seed(o.seed, kUpdateStream));
  rig->dyn = make_dynamic(rig->g, o.seed);
  rep.ops();
  const FrtEnsemble snap = [&] {
    LCB_LAYER("dynamic.snapshot");
    return rig->dyn->snapshot();
  }();
  rep.set("artefact_mb", static_cast<double>(save(snap, path)) / 1e6);
  FrtEnsemble mapped = load_mapped(rep, path, snap);
  rig->server = std::make_unique<pmte::serve::Server>();
  const std::uint64_t fp = [&] {
    LCB_LAYER("server.load");
    return rig->server->load(std::move(mapped));
  }();
  std::vector<pmte::serve::TenantStreamSpec> specs(kNumTenants);
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    pmte::serve::TenantConfig cfg;
    cfg.ensemble = fp;
    cfg.policy = kTenants[t].policy;
    cfg.cache_capacity = kTenants[t].cached ? kCacheSlots : 0;
    (void)rig->server->add_tenant(cfg);
    specs[t].kind = kTenants[t].kind;
    specs[t].opts.pairs = kTenantPool * kTenantBatch / kNumTenants;
  }
  const auto stream = pmte::serve::make_multi_tenant_workload(
      rig->g, specs, pmte::split_seed(o.seed, kTenantStream));
  for (std::size_t b = 0; b < kTenantPool; ++b) {
    const auto first = stream.begin() + static_cast<std::ptrdiff_t>(b * kTenantBatch);
    rig->pool.emplace_back(first, first + static_cast<std::ptrdiff_t>(kTenantBatch));
  }
  return rig;
}

/// kLoadReps load_mapped calls of the set-up's artefact (the first
/// snapshot, which no update has touched yet).
void repeat_loads(Report& rep, const UpdateRig& rig, const std::string& path) {
  const FrtEnsemble snap = rig.dyn->snapshot();
  for (int r = 0; r < kLoadReps; ++r) (void)load_mapped(rep, path, snap);
}

/// Check a served batch tenant by tenant against FrtEnsemble::query_batch
/// on the ensemble the tenant serves from (no cache).
void check_batch(Report& rep, const UpdateRig& rig,
                 const std::vector<pmte::serve::TenantQuery>& batch) {
  LCB_LAYER("check.post_swap");
  std::vector<Weight> ref;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    Pairs pairs;
    std::vector<Weight> served;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].tenant != t) continue;
      pairs.emplace_back(batch[i].u, batch[i].v);
      served.push_back(rig.out[i]);
    }
    const auto ens = rig.server->registry().find(
        rig.server->tenant_fingerprint(static_cast<pmte::serve::TenantId>(t)));
    (void)ens->query_batch(pairs, kTenants[t].policy, ref);
    rep.check("post-swap batch == direct query_batch", same_bits(served, ref),
              "tenant " + std::to_string(t) + " after update " +
                  std::to_string(rig.applied));
  }
}

/// One update cycle; returns its wall time (update + publish + batches).
double update_cycle(Report& rep, UpdateRig& rig) {
  const pmte::WeightedEdge& e = rig.edges[rig.updates.below(rig.edges.size())];
  const bool increase = rig.applied % 4 == 3;
  const double factor =
      increase ? rig.updates.uniform(1.5, 3.0) : rig.updates.uniform(0.3, 0.8);
  const Weight w = rig.dyn->graph().edge_weight(e.u, e.v) * factor;

  const Timer cycle;
  const Timer ut;
  const auto st = [&] {
    LCB_LAYER("dynamic.update");
    return rig.dyn->update(e.u, e.v, w);
  }();
  const double update_ms = ut.millis();
  ++rig.applied;
  rep.ops();
  const std::string path = st.incremental ? "warm" : "invalidate";
  rep.sample("update_" + path + "_ms", update_ms);
  rep.add("dynamic.relaxations_" + path, static_cast<double>(st.relaxations));
  rep.add("dynamic.levels_recomputed", static_cast<double>(st.levels_recomputed));
  rep.add("dynamic.levels_skipped", static_cast<double>(st.levels_skipped));
  rep.add("dynamic.trees_rebuilt", static_cast<double>(st.trees_rebuilt));

  const Timer pt;
  FrtEnsemble snap = [&] {
    LCB_LAYER("dynamic.snapshot");
    return rig.dyn->snapshot();
  }();
  const std::uint64_t fp = [&] {
    LCB_LAYER("server.load");
    return rig.server->load(std::move(snap));
  }();
  {
    LCB_LAYER("server.stage_swap");
    for (std::size_t t = 0; t < kNumTenants; ++t) {
      rig.server->stage_swap(static_cast<pmte::serve::TenantId>(t), fp);
    }
  }
  rep.sample("publish_ms", pt.millis());

  double check_s = 0.0;
  for (std::size_t b = 0; b < kBatchesPerUpdate; ++b) {
    const auto& batch = rig.pool[rig.cursor++ % rig.pool.size()];
    const Timer bt;
    if (b == 0) {
      LCB_LAYER("server.serve_post_swap");
      rig.server->serve(batch, rig.out);
    } else {
      LCB_LAYER("server.serve");
      rig.server->serve(batch, rig.out);
    }
    const double us = bt.seconds() * 1e6;
    rig.serve_s += us * 1e-6;
    rep.sample("batch_us", us);
    if (b == 0) rep.sample("post_swap_batch_us", us);
    rep.ops();
    if (b == 0) {
      const Timer ct;
      check_batch(rep, rig, batch);
      check_s = ct.seconds();
    }
  }
  return cycle.seconds() - check_s;
}

/// Fold of every tenant's result_hash32, in tenant order.
std::uint64_t tenant_hash(Report& rep, const UpdateRig& rig, const char* key) {
  std::uint64_t h = pmte::kFnv1aInit;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const auto& c = rig.server->counters(static_cast<pmte::serve::TenantId>(t));
    rep.info(std::string(key) + ".tenant" + std::to_string(t), hex(c.result_hash32()));
    h = pmte::fnv1a_fold(h, c.result_hash32());
  }
  return fold32(h);
}

/// Tenant-side logical counters summed over tenants.
void record_tenant_counters(Report& rep, const UpdateRig& rig) {
  double pairs = 0, lookups = 0, hits = 0, misses = 0, conflicts = 0;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const auto& c = rig.server->counters(static_cast<pmte::serve::TenantId>(t));
    pairs += static_cast<double>(c.pairs);
    lookups += static_cast<double>(c.tree_lookups);
    hits += static_cast<double>(c.cache_hits);
    misses += static_cast<double>(c.cache_misses);
    conflicts += static_cast<double>(c.cache_conflicts);
  }
  rep.set("server.pairs", pairs);
  rep.set("server.tree_lookups", lookups);
  rep.set("cache.hits", hits);
  rep.set("cache.misses", misses);
  rep.set("cache.conflicts", conflicts);
  rep.set("query_mqps", pairs / rig.serve_s / 1e6);
}

void serve_update(const Options& o, Report& rep) {
  const std::string path = artefact_path(o);
  if (o.trace) {
    double untraced_s = 0.0, traced_s = 0.0;
    std::uint64_t untraced_hash = 0;
    {
      Report baseline;  // same updates, tracing off
      auto rig = make_rig(baseline, o, path);
      for (std::size_t i = 0; i < kTraceUpdates; ++i) {
        untraced_s += update_cycle(baseline, *rig);
      }
      untraced_hash = tenant_hash(baseline, *rig, "untraced");
      rep.merge_ledger(baseline);
    }
    start_trace();
    auto rig = make_rig(rep, o, path);
    repeat_loads(rep, *rig, path);
    for (std::size_t i = 0; i < kTraceUpdates; ++i) traced_s += update_cycle(rep, *rig);
    rep.check("traced replay serves the untraced values",
              tenant_hash(rep, *rig, "traced") == untraced_hash,
              "tenant hashes differ between the two passes");
    // Enough further cycles for a p99 of the tenant batches.
    while (rig->applied < kMinUpdates) (void)update_cycle(rep, *rig);
    record_tenant_counters(rep, *rig);
    finish_trace(rep, o, untraced_s, traced_s);
    std::remove(path.c_str());
    return;
  }

  std::unique_ptr<UpdateRig> rig;
  for (int r = 0; r < kUpdateSetups; ++r) {
    rig.reset();
    const Timer t;
    rig = make_rig(rep, o, path);
    rep.sample("setup_s", t.seconds());
  }
  repeat_loads(rep, *rig, path);
  // build_s: DynamicEnsemble constructions on the inputs, spread over the
  // update cycles.
  BuildTimes times(kUpdateInputs);
  auto builds = times.schedule(
      rep, kUpdateN, o.seed, 1, o.seconds,
      [](const Graph& gi, std::uint64_t s) { (void)make_dynamic(gi, s); });
  double spent = 0.0;
  while (spent < o.seconds || rig->applied < kMinUpdates) {
    builds.due(spent);
    spent += update_cycle(rep, *rig);
    if (rig->applied == kPinUpdates) {
      check_pin(rep, o, tenant_hash(rep, *rig, "pinned"));
      const auto snap = rig->server->registry().find(
          rig->server->tenant_fingerprint(0));
      stretch_check(rep, rig->dyn->graph(), *snap);
    }
  }
  builds.finish();
  times.report(rep);
  record_tenant_counters(rep, *rig);
  std::remove(path.c_str());
}

// --- main ------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v, &used);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v, &used);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--threads") {
      o.threads = std::stoi(v, &used);
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--raw-out") {
      o.raw_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != v.size()) {
      throw std::invalid_argument("malformed value for " + flag + ": " + v);
    }
  }
  if (o.raw_out.empty()) throw std::invalid_argument("--raw-out is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (o.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  if (o.trace && !PMTE_OBS) {
    throw std::invalid_argument("--trace 1 needs a PMTE_OBS=1 build");
  }
  return o;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  pmte::set_num_threads(o.threads);
  Report rep;
  rep.info("workload", o.workload);
  rep.info("seed", std::to_string(o.seed));
  rep.info("omp_threads", std::to_string(pmte::num_threads()));
  rep.info("compiler", LCB_COMPILER);
  rep.info("build_type", LCB_BUILD_TYPE);
  rep.info("cxx_flags", LCB_CXX_FLAGS);
  rep.info("pmte_obs", std::to_string(PMTE_OBS));
  if (o.workload == "build_oracle") {
    build_oracle(o, rep);
  } else if (o.workload == "serve_read") {
    serve_read(o, rep);
  } else if (o.workload == "serve_update") {
    serve_update(o, rep);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  rep.set("peak_rss_mb", peak_rss_mb());
  std::ofstream os(o.raw_out, std::ios::trunc);
  rep.write(os);
  return os ? 0 : 1;
}

}  // namespace lcb

int main(int argc, char** argv) {
  try {
    return lcb::run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "lifecycle: " << ex.what() << '\n';
    return 2;
  }
}
