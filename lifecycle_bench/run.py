#!/usr/bin/env python3
"""Lifecycle benchmark of pmte: build, run one workload, report.

    python3 lifecycle_bench/run.py --workload build_oracle --seed 1 \
        --seconds 40 --trace 0 [--threads 2]

Run from the repository root.  The first run configures and builds the
library and the `lifecycle` binary (CMake, Release) under
$CARGO_TARGET_DIR/lifecycle_bench (default .bench_build/lifecycle_bench);
later runs only re-check the build.  The binary runs one workload and
writes its raw samples; this script turns them into the metrics named in
BENCHMARK.json, prints every timing with its median and honest tail
percentile, the run fingerprint and the check ledger, and ends with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run (see README.md in this directory).
"""

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import layers  # noqa: E402
import lcstats  # noqa: E402
import test_lcstats  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("build_oracle", "serve_read", "serve_update")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("lifecycle_bench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2,
                    help="OpenMP threads (default 2, at most nproc)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        fail("--threads must be between 1 and nproc")
    if args.seed < 0:
        fail("--seed must be >= 0")
    return args


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "lifecycle_bench"


# OpenMP threads stay on their cores.  Unbound, the scheduler migrates them
# between cores and every move refills the private L2: on a 4-core VM the
# unbound median query batch ran 2x slower and swung 1.5-7 ms run to run.
OMP_BINDING = {"OMP_PROC_BIND": "close", "OMP_PLACES": "cores"}


def run_env():
    env = dict(os.environ)
    env.update(OMP_BINDING)
    return env


def results_dir():
    """Per-run records (fingerprint + metrics) and kept Chrome traces."""
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    return out


def build():
    """Configure once, then (re)build the `lifecycle` target."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail("run from the repository root: %s is missing" % needed)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "lifecycle",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd), 3)
    return out / "lifecycle"


def fingerprint(args, raw):
    info = raw["info"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "unavailable"
    except OSError:
        rev = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "omp_threads": int(info["omp_threads"]),
        "omp_binding": OMP_BINDING,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"],
        "pmte_obs": int(info["pmte_obs"]),
        "git_revision": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


median = statistics.median


class Ledger:
    """Operations attempted and failed, on top of the binary's own."""

    def __init__(self, raw):
        self.attempted = raw["ops"] + raw["checks"]
        self.failures = list(raw["failures"])

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def end_to_end(raw):
    s, v = raw["samples"], raw["values"]
    return {
        "setup_s": median(s["setup_s"]),
        "peak_rss_mb": v["peak_rss_mb"],
        # Mean over the workload's build inputs of each input's median build.
        "build_s": v["build_s"],
        "stretch_weighted": v["stretch_weighted"],
        "artefact_mb": v["artefact_mb"],
    }


def query_stream(raw, ledger):
    """Throughput and batch latency of the traced run's query stream
    (query_batch calls, or Server::serve batches on serve_update)."""
    batches = raw["samples"]["batch_us"]
    ledger.check("batch_p99_us has >= %d samples beyond it" % lcstats.MIN_BEYOND,
                 lcstats.tail(batches, levels=(0.99,)) is not None)
    return {
        "query_mqps": raw["values"]["query_mqps"],
        "batch_p50_us": median(batches),
        "batch_p99_us": lcstats.percentile(batches, 0.99),
    }


def per_layer(raw, agg, ledger):
    s, v = raw["samples"], raw["values"]

    def val(key):
        return float(v.get(key, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    def med(key):
        return median(s[key]) if s.get(key) else 0.0

    serving = {"query.batch", "server.serve", "server.serve_post_swap"}
    kernel_pairs = val("query.pairs") + val("server.pairs")
    hits, misses = val("cache.hits"), val("cache.misses")
    relax = val("oracle.relaxations")
    return dict(query_stream(raw, ledger), **{
        "graph.generate_s": agg.busy_s("graph.generate"),
        "hopset.build_s": agg.busy_s("hopset.build"),
        "hopset.edges": val("hopset.edges"),
        "simgraph.build_s": agg.busy_s("simgraph.build"),
        "oracle.le_lists_s": agg.busy_s("oracle.le_lists"),
        "oracle.le_lists_self_share": agg.share("oracle.le_lists"),
        "oracle.semiring_ops": val("oracle.semiring_ops"),
        "oracle.relaxations": relax,
        "oracle.edges_touched": val("oracle.edges_touched"),
        "oracle.h_iterations": val("oracle.h_iterations"),
        "oracle.base_iterations": val("oracle.base_iterations"),
        "oracle.levels_full": val("oracle.levels_full"),
        "oracle.levels_warm": val("oracle.levels_warm"),
        "oracle.levels_skipped": val("oracle.levels_skipped"),
        "oracle.max_list_length": val("oracle.max_list_length"),
        "oracle.ns_per_relaxation": ratio(agg.busy_s("oracle.le_lists") * 1e9, relax),
        "direct.le_lists_s": agg.busy_s("direct.le_lists"),
        "direct.relaxations": val("direct.relaxations"),
        "frt.tree_build_s": agg.busy_s("frt.tree_build"),
        "index.build_s": agg.busy_s("index.build"),
        "index.nodes": val("index.nodes"),
        "ensemble.assemble_s": agg.busy_s("ensemble.assemble"),
        "serialize.save_s": agg.busy_s("serialize.save"),
        "serialize.artefact_bytes": val("serialize.artefact_bytes"),
        "serialize.load_mapped_ms": agg.median_ms("serialize.load_mapped"),
        "serialize.sections_mapped": val("serialize.sections_mapped"),
        "serialize.bulk_bytes_copied": val("serialize.bulk_bytes_copied"),
        "query.ns_per_pair": ratio(
            agg.internal_busy_s("ensemble.query_batch", serving) * 1e9, kernel_pairs),
        "query.tree_lookups_per_pair": ratio(val("query.tree_lookups"), val("query.pairs")),
        "query.lca_probes_per_pair": ratio(val("query.lca_probes"), val("query.pairs")),
        "dynamic.build_s": agg.busy_s("dynamic.build"),
        "dynamic.update_warm_ms": med("update_warm_ms"),
        "dynamic.update_invalidate_ms": med("update_invalidate_ms"),
        "dynamic.relaxations_warm": val("dynamic.relaxations_warm"),
        "dynamic.relaxations_invalidate": val("dynamic.relaxations_invalidate"),
        "dynamic.levels_recomputed": val("dynamic.levels_recomputed"),
        "dynamic.levels_skipped": val("dynamic.levels_skipped"),
        "dynamic.trees_rebuilt": val("dynamic.trees_rebuilt"),
        "dynamic.snapshot_ms": agg.median_ms("dynamic.snapshot"),
        "server.load_ms": agg.median_ms("server.load"),
        "server.stage_swap_us": agg.median_ms("server.stage_swap") * 1e3,
        "server.publish_ms": med("publish_ms"),
        "server.serve_us": agg.median_ms("server.serve") * 1e3,
        "server.post_swap_batch_us": agg.median_ms("server.serve_post_swap") * 1e3,
        "server.tree_lookups_per_pair": ratio(val("server.tree_lookups"), val("server.pairs")),
        "cache.lookups": hits + misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.conflict_ratio": ratio(val("cache.conflicts"), misses),
        "trace.untraced_s": val("trace.untraced_s"),
        "trace.traced_s": val("trace.traced_s"),
        "trace.overhead_s": val("trace.overhead_s"),
        "trace.dropped_events": val("trace.dropped_events"),
    })


# Logical operation count behind each layer's ns/op column.
LAYER_OPS = {
    "oracle.le_lists": ("oracle.relaxations", "relaxations"),
    "direct.le_lists": ("direct.relaxations", "relaxations"),
    "index.build": ("index.nodes", "nodes"),
    "query.batch": ("query.pairs", "pairs"),
    "serialize.save": ("serialize.artefact_bytes", "bytes"),
}


def print_layer_table(raw, agg):
    v = dict(raw["values"])
    v["dynamic.relaxations"] = (v.get("dynamic.relaxations_warm", 0.0) +
                                v.get("dynamic.relaxations_invalidate", 0.0))
    ops = dict(LAYER_OPS)
    if v.get("server.pairs"):
        ops["server.serve"] = ("server.pairs", "pairs (all serve layers)")
    if v["dynamic.relaxations"]:
        ops["dynamic.update"] = ("dynamic.relaxations", "relaxations")
    print("per-layer (traced run; busy = span time summed over threads, "
          "self = busy minus nested layer spans, share = self / total self "
          "excluding check.*):")
    print("  %-24s %6s %10s %10s %7s %16s %10s" % (
        "layer", "calls", "busy_s", "self_s", "share", "ops", "ns/op"))
    for name in agg.layer_names():
        busy = agg.busy_s(name)
        key, unit = ops.get(name, (None, ""))
        count = float(v.get(key, 0.0)) if key else 0.0
        print("  %-24s %6d %10.4f %10.4f %6.1f%% %16s %10s" % (
            name, agg.calls(name), busy, agg.self_s(name),
            100 * agg.share(name),
            ("%d %s" % (count, unit)) if count else "-",
            ("%.2f" % (busy * 1e9 / count)) if count else "-"))
    print("library spans (attributed to the enclosing layer):")
    for name, rec in sorted(agg.internal.items(), key=lambda kv: -kv[1]["busy_ns"]):
        where = ", ".join("%s x%d" % kv for kv in rec["layers"].most_common(3))
        print("  %-24s %6d %10.4f  in %s" % (name, rec["calls"],
                                            rec["busy_ns"] / 1e9, where))


def main():
    args = parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()

    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    raw_path = work / ("%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, os.getpid()))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--work-dir", str(work),
           "--raw-out", str(raw_path)]
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, env=run_env(),
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S, 4)
    if res.returncode != 0:
        fail("workload binary exited with %d" % res.returncode, 4)
    with open(raw_path) as f:
        raw = json.load(f)
    raw_path.unlink()

    ledger = Ledger(raw)
    self_check = test_lcstats.run_self_check()
    ledger.check("percentile helper self-check", not self_check)
    for problem in self_check:
        print("lcstats self-check failed: " + problem, file=sys.stderr)

    fp = fingerprint(args, raw)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    served = {k: v for k, v in raw["info"].items()
              if k not in fp and k != "trace_file"}
    print("served values: " + json.dumps(served, sort_keys=True))
    units = {"setup_s": "s", "build_s": "s", "load_mapped_ms": "ms",
             "batch_us": "us", "post_swap_batch_us": "us", "publish_ms": "ms",
             "update_warm_ms": "ms", "update_invalidate_ms": "ms"}
    print("timings (%s, seed %d, %d OpenMP threads):" % (
        args.workload, args.seed, fp["omp_threads"]))
    for key, values in sorted(raw["samples"].items()):
        print("  " + lcstats.summary(key, values, units.get(key, "")))

    if args.trace:
        trace_file = Path(raw["info"]["trace_file"])
        spans = layers.load(trace_file)
        agg = layers.Aggregate(spans)
        per_tid = collections.Counter(s.tid for s in spans)
        ring = raw["values"]["trace.ring_capacity"]
        ledger.check("no trace ring filled up (so none wrapped)",
                     all(n < ring for n in per_tid.values()))
        computed = per_layer(raw, agg, ledger)
        print_layer_table(raw, agg)
        print("tracing overhead: traced %.4f s vs untraced %.4f s -> %+.4f s" % (
            computed["trace.traced_s"], computed["trace.untraced_s"],
            computed["trace.overhead_s"]))
        wanted = spec["per_layer"]
        kept = results_dir() / ("%s-seed%d.trace.json" % (args.workload, args.seed))
        trace_file.replace(kept)
        print("chrome trace: %s" % kept)
    else:
        computed = end_to_end(raw)
        wanted = spec["end_to_end"]
        print("query stream (a per-layer metric of the traced run): query_mqps %.6g"
              % raw["values"]["query_mqps"])
        for m in wanted:
            x = computed[m["name"]]
            ledger.check("%s is positive and finite" % m["name"],
                         x > 0 and x == x and x != float("inf"))

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("metrics:")
    for name, m in metrics.items():
        print("  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    for problem in ledger.failures:
        print("FAILED: " + problem)
    record = {"fingerprint": fp, "metrics": metrics,
              "failures": ledger.failures, "wall_s": time.monotonic() - started}
    (results_dir() / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not ledger.failures,
                      "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
