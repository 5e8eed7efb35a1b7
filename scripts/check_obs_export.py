#!/usr/bin/env python3
"""Validate the observability exports of serve_queries.

Runs `serve_queries replay|tenants --metrics-out --trace-out` on toy
graphs and checks both artefacts against their format contracts
(docs/OBSERVABILITY.md):

Prometheus text exposition:
  - every non-comment line is `series[{labels}] value`
  - every series is preceded by exactly one # HELP and # TYPE line for its
    family, with a valid type (counter | gauge | histogram)
  - label sets parse as comma-separated key="escaped value" pairs
  - histogram families carry `_bucket{le=...}` series with nondecreasing
    cumulative counts, a final le="+Inf" bucket, plus `_sum` and `_count`,
    and the +Inf bucket equals `_count`

Chrome trace-event JSON:
  - the file parses as {"traceEvents": [...]}
  - every event is a complete event (ph == "X") with the required fields,
    nonnegative ts/dur, and a nonnegative integer tid
  - events are sorted by ts (monotone — the writer merges the per-thread
    rings into one timeline) and rebased so the earliest ts is 0

Span tree (docs/OBSERVABILITY.md):
  - the `replay` run (oracle pipeline, --cache, --save) records every
    build, save and cached-query span, from ensemble.build through
    hopset.build, simgraph.build, oracle.level_run, frt.tree_build and
    index.build to ensemble.save; the `tenants` run records every server.*
    phase span
  - every oracle.level_run lies inside an oracle.step, and every
    frt.tree_build and index.build inside an ensemble.build_tree, on the
    same tid (a span is recorded when it closes, so an enclosing span is
    newer than the spans inside it and survives any ring wrap that keeps
    them)

Trace losses: every run's exposition carries
pmte_trace_events_lost_total{reason="thread_index"} and
{reason="ring_overwrite"}, and the thread_index series reads 0.

Both loaders: the `replay` run --saves its artefact, and a third run,
`replay --load=<artefact> --mmap` on the same graph flags, reloads it.
That run must record the ensemble.load and ensemble.load_mapped spans,
and pmte_ensemble_loads_copied_total and pmte_ensemble_loads_mapped_total
must each read 1.

Hop-set decisions: the `replay` run's gnm graph drops the hub clique, so
pmte_hopset_builds_total reads {shortcuts="dropped"} 1 and
{shortcuts="kept"} 0; a fourth `replay` run on a grid, whose hop
distances the clique does shorten, reads the opposite.

Usage:
  scripts/check_obs_export.py --serve-bin build/src/serve_queries
      [--keep-dir DIR]

Exit status: 0 = both exports valid, 1 = any violation (each is printed).
Wired into CI (obs-export job) and CTest (obs_export).
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(-?\d+(?:\.\d+)?)$")
VALID_TYPES = ("counter", "gauge", "histogram")


def family_of(series_name, declared_types):
    """Map a sample's series name to its declared family: histogram
    samples append _bucket/_sum/_count to the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if series_name.endswith(suffix):
            base = series_name[: -len(suffix)]
            if declared_types.get(base) == "histogram":
                return base
    return series_name


def check_prometheus(path, errors):
    declared_help = {}
    declared_types = {}
    # (family, labels-without-le) -> list of (le, cumulative value)
    buckets = {}
    sums = {}
    counts = {}
    n_samples = 0

    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue

        def err(msg):
            errors.append(f"{path.name}:{lineno}: {msg}: {line!r}")

        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not METRIC_NAME_RE.match(parts[2]):
                err("malformed # HELP line")
                continue
            if parts[2] in declared_help:
                err(f"duplicate # HELP for family {parts[2]}")
            declared_help[parts[2]] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not METRIC_NAME_RE.match(parts[2]):
                err("malformed # TYPE line")
                continue
            if parts[3] not in VALID_TYPES:
                err(f"invalid metric type {parts[3]!r}")
            if parts[2] in declared_types:
                err(f"duplicate # TYPE for family {parts[2]}")
            declared_types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # other comments are legal

        m = SAMPLE_RE.match(line)
        if not m:
            err("unparseable sample line")
            continue
        n_samples += 1
        series, labelstr, value = m.group(1), m.group(2) or "", m.group(3)
        family = family_of(series, declared_types)
        if family not in declared_types:
            err(f"sample of undeclared family {family!r} (no # TYPE)")
            continue
        if family not in declared_help:
            err(f"sample of family {family!r} with no # HELP")

        labels = {}
        if labelstr:
            for lm in LABEL_RE.finditer(labelstr):
                labels[lm.group(1)] = lm.group(2)
            rest = LABEL_RE.sub("", labelstr).replace(",", "")
            if rest.strip():
                err(f"unparseable label set {labelstr!r}")
                continue

        if declared_types[family] == "histogram":
            key = (family,
                   tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le")))
            if series.endswith("_bucket"):
                if "le" not in labels:
                    err("histogram _bucket sample without le label")
                    continue
                buckets.setdefault(key, []).append(
                    (labels["le"], float(value)))
            elif series.endswith("_sum"):
                sums[key] = float(value)
            elif series.endswith("_count"):
                counts[key] = float(value)
            else:
                err("bare sample of a histogram family")

    for key, bs in sorted(buckets.items()):
        family = key[0]
        if bs[-1][0] != "+Inf":
            errors.append(f"{path.name}: {family}: last bucket is "
                          f"le={bs[-1][0]!r}, expected +Inf")
        prev = -1.0
        for le, v in bs:
            if v < prev:
                errors.append(f"{path.name}: {family}: cumulative bucket "
                              f"counts decrease at le={le}")
            prev = v
        if key not in counts:
            errors.append(f"{path.name}: {family}: missing _count")
        elif bs[-1][0] == "+Inf" and bs[-1][1] != counts[key]:
            errors.append(f"{path.name}: {family}: +Inf bucket "
                          f"({bs[-1][1]}) != _count ({counts[key]})")
        if key not in sums:
            errors.append(f"{path.name}: {family}: missing _sum")

    if n_samples == 0:
        errors.append(f"{path.name}: no samples at all — the obs layer "
                      "was not enabled?")
    return n_samples


REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "pid", "tid", "ts", "dur")


def check_trace(path, errors):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        errors.append(f"{path.name}: not valid JSON: {e}")
        return 0
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path.name}: missing traceEvents array")
        return 0

    open_by_tid = {}  # tid -> stack, for B/E matching if ever emitted
    prev_ts = -1.0
    saw_zero_ts = False
    for i, ev in enumerate(events):
        def err(msg):
            errors.append(f"{path.name}: event {i}: {msg}")

        missing = [f for f in REQUIRED_EVENT_FIELDS
                   if f not in ev and not (f == "dur" and
                                           ev.get("ph") in ("B", "E"))]
        if missing:
            err(f"missing fields {missing}")
            continue
        ph = ev["ph"]
        if ph not in ("X", "B", "E"):
            err(f"unexpected phase {ph!r} (complete or begin/end only)")
            continue
        if not isinstance(ev["tid"], int) or ev["tid"] < 0:
            err(f"bad tid {ev['tid']!r}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            err(f"negative or non-numeric ts {ts!r}")
            continue
        if ts == 0:
            saw_zero_ts = True
        if ts < prev_ts:
            err(f"ts not monotone ({ts} after {prev_ts})")
        prev_ts = ts
        if ph == "X":
            dur = ev["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                err(f"negative or non-numeric dur {dur!r}")
        elif ph == "B":
            open_by_tid.setdefault(ev["tid"], []).append(ev["name"])
        elif ph == "E":
            stack = open_by_tid.get(ev["tid"], [])
            if not stack:
                err("E event with no matching B on this tid")
            else:
                stack.pop()

    for tid, stack in sorted(open_by_tid.items()):
        if stack:
            errors.append(f"{path.name}: tid {tid}: {len(stack)} B "
                          f"event(s) never closed: {stack}")
    if events and not saw_zero_ts:
        errors.append(f"{path.name}: no event at ts=0 — timestamps are "
                      "not rebased to the earliest event")
    if not events:
        errors.append(f"{path.name}: no trace events at all — tracing "
                      "was not enabled?")
    return len(events)


SINGLE_RUN_SPANS = (
    "ensemble.build", "hopset.build", "simgraph.build",
    "simgraph.level_sample", "ensemble.build_tree", "oracle.step",
    "oracle.level_run", "frt.tree_build", "index.build", "ensemble.save",
    "ensemble.query_batch", "ensemble.classify", "ensemble.fill",
    "ensemble.serve")
# Span -> the span that must enclose each of its events on the same tid.
ENCLOSED_BY = {"oracle.level_run": "oracle.step",
               "frt.tree_build": "ensemble.build_tree",
               "index.build": "ensemble.build_tree"}
TENANT_RUN_SPANS = (
    "server.serve", "server.flip", "server.swap", "server.route",
    "server.execute", "server.shard", "server.scatter", "server.fold")
LOAD_RUN_SPANS = ("ensemble.load", "ensemble.load_mapped")
LOAD_RUN_COUNTERS = {"pmte_ensemble_loads_copied_total": 1,
                     "pmte_ensemble_loads_mapped_total": 1}


def hopset_builds(kept, dropped):
    return {'pmte_hopset_builds_total{shortcuts="kept"}': kept,
            'pmte_hopset_builds_total{shortcuts="dropped"}': dropped}


def check_counters(path, expected, errors):
    """Each series in `expected`, written as in the exposition
    (name{labels}), has exactly that value."""
    values = {}
    for line in path.read_text().splitlines():
        m = SAMPLE_RE.match(line)
        if m:
            series = m.group(1) + (f"{{{m.group(2)}}}" if m.group(2) else "")
            values[series] = float(m.group(3))
    for name, want in expected.items():
        if values.get(name) != want:
            errors.append(f"{path.name}: {name} = {values.get(name)}, "
                          f"expected {want}")


def check_trace_losses(path, errors):
    """Both trace-loss series exist, and no event was lost to a thread
    index past the ring table."""
    values = {}
    for line in path.read_text().splitlines():
        m = SAMPLE_RE.match(line)
        if m and m.group(1) == "pmte_trace_events_lost_total":
            values[m.group(2)] = float(m.group(3))
    for reason in ("thread_index", "ring_overwrite"):
        if f'reason="{reason}"' not in values:
            errors.append(f"{path.name}: no pmte_trace_events_lost_total"
                          f'{{reason="{reason}"}} series')
    lost = values.get('reason="thread_index"')
    if lost not in (None, 0.0):
        errors.append(f"{path.name}: {lost:g} trace events lost to the "
                      "thread index, expected 0")


def check_span_tree(path, required, errors):
    """Required span names are present, and every span named in
    ENCLOSED_BY lies inside its enclosing span on its tid (integer-ns
    comparisons)."""
    events = json.loads(path.read_text()).get("traceEvents", [])
    names = {ev.get("name") for ev in events}
    for name in required:
        if name not in names:
            errors.append(f"{path.name}: no {name} span")

    def interval(ev):
        start = round(ev["ts"] * 1000)
        return start, start + round(ev["dur"] * 1000)

    outer = {}  # (enclosing name, tid) -> intervals
    for ev in events:
        if ev.get("name") in ENCLOSED_BY.values():
            outer.setdefault((ev["name"], ev["tid"]), []).append(interval(ev))
    for ev in events:
        parent = ENCLOSED_BY.get(ev.get("name"))
        if parent is None:
            continue
        lo, hi = interval(ev)
        if not any(s <= lo and hi <= e
                   for s, e in outer.get((parent, ev["tid"]), [])):
            errors.append(f"{path.name}: {ev['name']} at ts={ev['ts']} "
                          f"(tid {ev['tid']}) lies in no {parent}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--serve-bin", required=True,
                    help="path to the serve_queries binary")
    ap.add_argument("--keep-dir",
                    help="write the exports here (kept) instead of a "
                         "temp dir")
    args = ap.parse_args()

    serve_bin = Path(args.serve_bin)
    if not serve_bin.exists():
        print(f"error: {serve_bin} not found (build serve_queries first)",
              file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="pmte-obs-") as tmp:
        outdir = Path(args.keep_dir) if args.keep_dir else Path(tmp)
        outdir.mkdir(parents=True, exist_ok=True)
        metrics = outdir / "metrics.prom"
        trace = outdir / "trace.json"
        artefact = outdir / "ensemble.bin"
        graph = ["--graph=gnm", "--n=256", "--seed=7"]
        exports = [f"--metrics-out={metrics}", f"--trace-out={trace}"]

        # Toy graphs, four runs: a replay with a cache (exercises
        # ensemble/cache instruments) that saves its artefact, a tenants
        # run with a hot-swap (exercises server phase spans + per-tenant
        # series), a replay that reloads the artefact through both
        # loaders, and a replay of a grid build that keeps the hub clique.
        runs = [
            ("single", ["replay"] + graph + [
                "--trees=4", "--pipeline=oracle", "--queries=5000",
                "--repeat=1", "--cache", "--cache-capacity=1024",
                f"--save={artefact}"] + exports,
             SINGLE_RUN_SPANS, hopset_builds(kept=0, dropped=1)),
            ("tenant", ["tenants"] + graph + [
                "--trees=4", "--queries=5000", "--tenants=2", "--batches=4",
                "--swap-at=2"] + exports,
             TENANT_RUN_SPANS, {}),
            ("load", ["replay"] + graph + [
                f"--load={artefact}", "--mmap", "--queries=5000",
                "--repeat=1"] + exports,
             LOAD_RUN_SPANS, LOAD_RUN_COUNTERS),
            ("grid", ["replay", "--graph=grid", "--n=256", "--seed=7",
                      "--trees=1", "--pipeline=oracle", "--queries=1000",
                      "--repeat=1"] + exports,
             ("hopset.build",), hopset_builds(kept=1, dropped=0)),
        ]
        errors = []
        for mode, extra, spans, counters in runs:
            cmd = [str(serve_bin)] + extra
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout)
                print(proc.stderr, file=sys.stderr)
                print(f"error: {' '.join(cmd)} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            n_samples = check_prometheus(metrics, errors)
            n_events = check_trace(trace, errors)
            check_span_tree(trace, spans, errors)
            check_counters(metrics, counters, errors)
            check_trace_losses(metrics, errors)
            print(f"{mode} run: {n_samples} metric samples, "
                  f"{n_events} trace events")

        if errors:
            print(f"\n{len(errors)} export violation(s):", file=sys.stderr)
            for e in errors:
                print(f"  {e}", file=sys.stderr)
            return 1
    print("obs export OK: Prometheus grammar, trace schema and span tree "
          "all valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
