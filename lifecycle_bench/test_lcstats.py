"""Self-check of the percentile helper (lcstats.py).

    python3 lifecycle_bench/test_lcstats.py

run.py also calls run_self_check() in every run and counts it
as one correctness check.
"""

import sys

sys.dont_write_bytecode = True  # write nothing next to the sources
import lcstats  # noqa: E402


def run_self_check():
    """Return a list of failure messages (empty when every case holds)."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (label, got, want))

    thousand = list(range(1, 1001))
    expect("p50 of 1..1000", lcstats.percentile(thousand, 0.5), 500)
    expect("p99 of 1..1000", lcstats.percentile(thousand, 0.99), 990)
    expect("beyond p99 of 1..1000", lcstats.beyond(thousand, 0.99), 10)
    expect("tail of 1..1000", lcstats.tail(thousand), (0.99, 990, 10))
    # 999 samples leave only 9 beyond p99: the tail falls back to p90.
    short = list(range(1, 1000))
    expect("beyond p99 of 1..999", lcstats.beyond(short, 0.99), 9)
    expect("tail of 1..999", lcstats.tail(short), (0.9, 900, 99))
    # Order of the input does not matter.
    expect("tail of reversed 1..1000", lcstats.tail(thousand[::-1]),
           (0.99, 990, 10))
    # Too few samples, or all ties: no tail percentile at all.
    expect("tail of 3 samples", lcstats.tail([3.0, 1.0, 2.0]), None)
    expect("tail of ties", lcstats.tail([5.0] * 2000), None)
    # 10,000 samples support p99.9.
    expect("tail of 1..10000", lcstats.tail(list(range(1, 10001))),
           (0.999, 9990, 10))
    expect("p100", lcstats.percentile([2, 9, 4], 1.0), 9)
    try:
        lcstats.percentile([], 0.5)
        failures.append("percentile of [] did not raise")
    except ValueError:
        pass
    if "no tail percentile" not in lcstats.summary("x", [1.0, 2.0], "s"):
        failures.append("summary of 2 samples printed a tail percentile")
    return failures


if __name__ == "__main__":
    problems = run_self_check()
    for p in problems:
        print("FAIL", p)
    print("lcstats self-check: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
