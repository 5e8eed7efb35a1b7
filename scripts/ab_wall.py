#!/usr/bin/env python3
"""Interleaved A/B wall-clock comparison of two revisions on the lifecycle
benchmark (BENCHMARK.json, lifecycle_bench/run.py).

    scripts/ab_wall.py --base <rev> --change <rev> --workload W \
        --seed S --pairs N [--threads T] [--trace]
    scripts/ab_wall.py --self-test

Both revisions are checked out with `git worktree add --detach` into a
temporary directory (removed, worktrees included, on exit), each with its
own CARGO_TARGET_DIR; run.py builds a side on its first run there, outside
the timed metrics.  N pairs of untraced runs (`run.py --trace 0`,
BENCHMARK.json's run_seconds long) alternate which side runs first.  Each
run's last stdout line is run.py's JSON record; a non-zero exit or
"correct": false stops the comparison.

For every end-to-end metric of BENCHMARK.json the script prints both
sides' values per pair, each side's median and quartiles, the pairs the
change won (ties count for neither side, `better` gives the direction),
and two verdicts:

  gain   the change won at least 9/10 of the pairs and its median beats the
         base median by more than the base's interquartile range;
  bound  the change's median is not worse than the base median by more
         than the metric's relative bound.

With --trace the pairs are traced runs (`run.py --trace 1`), whose
records carry the per-layer metrics of BENCHMARK.json instead.  For each
per-layer metric that every record carries, the script prints both sides'
medians and quartiles and the pairs the change won, and no verdict: the
gain and bound rules apply to end-to-end metrics only.

It ends with the failed and attempted operations of each side.  Run from
inside the repository.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print("ab_wall: " + msg, file=sys.stderr)
    sys.exit(1)


# --- Summary maths ----------------------------------------------------------

def quartiles(values):
    """(q1, median, q3), interpolating between the order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def improvement(base, change, better):
    """How much better `change` is than `base` (negative: worse)."""
    return base - change if better == "lower" else change - base


def describe(base, change, better):
    """Medians, quartiles and the change's wins over paired runs
    (base[i], change[i])."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    wins = sum(1 for b, c in zip(base, change) if improvement(b, c, better) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "wins": wins,
        "pairs": len(base),
    }


def summarize(base, change, better, bound):
    """describe() plus the gain and bound verdicts of an end-to-end metric."""
    s = describe(base, change, better)
    bmed, bq1, bq3 = (s["base"][k] for k in ("median", "q1", "q3"))
    gap = improvement(bmed, s["change"]["median"], better)
    s["gain"] = 10 * s["wins"] >= 9 * s["pairs"] and gap > bq3 - bq1
    s["within_bound"] = -gap <= bound * abs(bmed)
    return s


def layer_summaries(per_layer, base_records, change_records):
    """(metric, describe()) for each per-layer metric, in BENCHMARK.json's
    order, that every traced record carries."""
    records = base_records + change_records
    out = []
    for metric in per_layer:
        name = metric["name"]
        if not all(name in r["metrics"] for r in records):
            continue
        b = [r["metrics"][name]["value"] for r in base_records]
        c = [r["metrics"][name]["value"] for r in change_records]
        out.append((metric, describe(b, c, metric["better"])))
    return out


# --- Worktrees and runs -----------------------------------------------------

def git(*args, cwd=ROOT):
    res = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        fail("git %s failed: %s" % (" ".join(args), res.stderr.strip()))
    return res.stdout.strip()


def run_checked(cmd, cwd, env, what):
    res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
        fail("%s exited with status %d" % (what, res.returncode))
    return res.stdout


class Side:
    def __init__(self, name, rev, scratch):
        self.name = name
        self.commit = git("rev-parse", "--verify", rev + "^{commit}")
        self.tree = scratch / name
        self.env = dict(os.environ)
        self.env["CARGO_TARGET_DIR"] = str(scratch / (name + "-target"))
        self.records = []

    def run(self, args, seconds):
        # -B: write no bytecode into the checkout.
        cmd = [sys.executable, "-B", "lifecycle_bench/run.py",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "1" if args.trace else "0"]
        if args.threads is not None:
            cmd += ["--threads", str(args.threads)]
        out = run_checked(cmd, self.tree, self.env, "%s run" % self.name)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            fail("%s run printed no JSON record" % self.name)
        if not record.get("correct", False):
            fail("%s run is not correct: %s" % (self.name, out[-2000:]))
        self.records.append(record)


def compare(args):
    scratch = Path(tempfile.mkdtemp(prefix="ab_wall."))
    sides = []
    try:
        sides = [Side("base", args.base, scratch),
                 Side("change", args.change, scratch)]
        for side in sides:
            git("worktree", "add", "--detach", str(side.tree), side.commit)
        bench = json.loads((sides[0].tree / "BENCHMARK.json").read_text())
        if git("diff", "--stat", sides[0].commit, sides[1].commit, "--",
               "BENCHMARK.json", *bench["paths"]):
            print("WARNING: the benchmark differs between the revisions; "
                  "this is not a like-for-like comparison")
        seconds = bench["run_seconds"]
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                side.run(args, seconds)
            print("pair %d/%d done (%s first)" % (i + 1, args.pairs,
                                                   order[0].name), flush=True)
        (report_layers if args.trace else report)(args, bench, sides, seconds)
    finally:
        for side in sides:
            if side.tree.exists():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(side.tree)], cwd=ROOT,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)


def report_header(args, sides, seconds, kind):
    base, change = sides
    print("\n%s seed %d, %d pairs, %d s %s runs, base %s, change %s" % (
        args.workload, args.seed, args.pairs, seconds, kind,
        base.commit[:12], change.commit[:12]))


def report_operations(sides):
    print()
    for side in sides:
        failed = sum(r["failed"] for r in side.records)
        attempted = sum(r["attempted"] for r in side.records)
        print("%-6s failed %d of %d operations" % (side.name, failed,
                                                  attempted))


def report(args, bench, sides, seconds):
    base, change = sides
    report_header(args, sides, seconds, "untraced")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        b = [r["metrics"][name]["value"] for r in base.records]
        c = [r["metrics"][name]["value"] for r in change.records]
        s = summarize(b, c, metric["better"], metric["bound"])
        print("\n%s [%s, %s is better, bound %g]" % (
            name, metric["unit"], metric["better"], metric["bound"]))
        for i, (x, y) in enumerate(zip(b, c)):
            print("  pair %2d  base %-12.6g change %-12.6g" % (i + 1, x, y))
        for label in ("base", "change"):
            q = s[label]
            print("  %-6s median %.6g  quartiles %.6g .. %.6g" % (
                label, q["median"], q["q1"], q["q3"]))
        print("  change won %d/%d pairs; gain rule %s; within bound %s" % (
            s["wins"], s["pairs"], "holds" if s["gain"] else "fails",
            "yes" if s["within_bound"] else "NO"))
    report_operations(sides)


def report_layers(args, bench, sides, seconds):
    base, change = sides
    report_header(args, sides, seconds, "traced")
    print("per-layer metrics: median [quartiles] per side and the pairs the "
          "change won; no gain or bound verdict (those rules are for "
          "end-to-end metrics)")
    for metric, s in layer_summaries(bench["per_layer"], base.records,
                                     change.records):
        b, c = s["base"], s["change"]
        print("  %-32s base %-11.6g [%.6g, %.6g]  change %-11.6g "
              "[%.6g, %.6g]  won %d/%d (%s, %s is better)" % (
                  metric["name"], b["median"], b["q1"], b["q3"],
                  c["median"], c["q1"], c["q3"], s["wins"], s["pairs"],
                  metric["unit"], metric["better"]))
    report_operations(sides)


# --- Self-test --------------------------------------------------------------

def self_test():
    """Check the summary maths on synthetic runs (CTest: ab_wall_selftest)."""
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    def close(a, b):
        return math.isclose(a, b, rel_tol=0, abs_tol=1e-12)

    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    check("odd quartiles", (q1, med, q3) == (2.0, 3.0, 4.0))
    q1, med, q3 = quartiles([4.0, 1.0, 3.0, 2.0])
    check("even quartiles interpolate",
          close(q1, 1.75) and close(med, 2.5) and close(q3, 3.25))
    check("single run", quartiles([7.0]) == (7.0, 7.0, 7.0))

    base = [1.20, 1.25, 1.30, 1.28, 1.22, 1.26, 1.24, 1.27, 1.29, 1.21]
    faster = [0.80, 0.82, 0.85, 0.83, 0.81, 0.84, 0.86, 0.80, 0.83, 0.82]
    s = summarize(base, faster, "lower", 0.25)
    check("clear gain wins every pair", s["wins"] == 10 and s["gain"])
    check("clear gain is within bound", s["within_bound"])

    # Ties count for neither side: 9 wins and 1 tie still meet 9/10.
    tied = faster[:9] + [base[9]]
    s = summarize(base, tied, "lower", 0.25)
    check("a tie is no win", s["wins"] == 9 and s["gain"])
    # 8 of 10 is not enough, however large the median gap.
    two_losses = faster[:8] + [2.0, 2.0]
    s = summarize(base, two_losses, "lower", 0.25)
    check("8/10 fails the rule", s["wins"] == 8 and not s["gain"])
    # Winning every pair by less than the base IQR is not a gain.
    nudged = [x - 0.001 for x in base]
    s = summarize(base, nudged, "lower", 0.25)
    check("gap inside the base IQR fails", s["wins"] == 10 and not s["gain"])

    # `better` sets the direction.
    s = summarize([10.0] * 10, [12.0] * 10, "higher", 0.1)
    check("higher is better", s["wins"] == 10 and s["gain"])
    s = summarize([10.0] * 10, [12.0] * 10, "lower", 0.1)
    check("worse beyond bound", s["wins"] == 0 and not s["within_bound"])
    s = summarize([10.0] * 10, [10.5] * 10, "lower", 0.1)
    check("worse within bound", not s["gain"] and s["within_bound"])
    s = summarize([4.11505] * 10, [4.11505] * 10, "lower", 0.2)
    check("identical runs: no wins, no gain, within bound",
          s["wins"] == 0 and not s["gain"] and s["within_bound"])
    try:
        summarize([1.0], [1.0, 2.0], "lower", 0.25)
        check("unpaired runs raise", False)
    except ValueError:
        pass

    # Per-layer summaries (--trace): every metric all records carry, in
    # BENCHMARK.json's order, with medians, quartiles and wins but no
    # verdict.
    per_layer = [{"name": "index.build_s", "unit": "s", "better": "lower"},
                 {"name": "gone.s", "unit": "s", "better": "lower"},
                 {"name": "cache.hit_ratio", "unit": "ratio",
                  "better": "higher"}]

    def record(build_s, hit_ratio, extra=None):
        metrics = {"index.build_s": {"value": build_s, "unit": "s"},
                   "cache.hit_ratio": {"value": hit_ratio, "unit": "ratio"}}
        if extra is not None:
            metrics["gone.s"] = {"value": extra, "unit": "s"}
        return {"metrics": metrics}

    base_runs = [record(0.018, 0.5, 1.0), record(0.017, 0.5, 1.0),
                 record(0.019, 0.5, 1.0)]
    change_runs = [record(0.012, 0.6), record(0.020, 0.4),
                   record(0.011, 0.6)]
    rows = layer_summaries(per_layer, base_runs, change_runs)
    check("a metric some record lacks is skipped, order kept",
          [m["name"] for m, _ in rows] == ["index.build_s", "cache.hit_ratio"])
    build, hits = rows[0][1], rows[1][1]
    check("layer medians and quartiles",
          close(build["base"]["median"], 0.018) and
          close(build["change"]["median"], 0.012) and
          close(build["base"]["q1"], 0.0175) and
          close(build["change"]["q3"], 0.016))
    check("layer wins follow `better`",
          build["wins"] == 2 and hits["wins"] == 2 and hits["pairs"] == 3)
    check("layer summaries carry no verdict",
          all("gain" not in s and "within_bound" not in s for _, s in rows))

    if failures:
        for f in failures:
            print("SELF-TEST FAIL: " + f, file=sys.stderr)
        return 1
    print("ab_wall self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--threads", type=int)
    ap.add_argument("--trace", action="store_true",
                    help="traced pairs; report the per-layer metrics")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.change and args.workload):
        ap.error("--base, --change and --workload are required")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    compare(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
