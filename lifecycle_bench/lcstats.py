"""Percentiles reported honestly.

A timing is reported as its median plus the highest tail percentile that
still has at least MIN_BEYOND samples beyond it, with the sample count and
that number beside it.  A percentile with fewer samples beyond it is a
guess about the tail, so `tail` refuses to give one.

Percentiles use the nearest-rank rule on the sorted samples: the p-th
percentile of n samples is the ceil(p * n)-th smallest.
"""

import math
import statistics

MIN_BEYOND = 10
TAIL_LEVELS = (0.999, 0.99, 0.9)


def percentile(values, p):
    """Nearest-rank p-quantile (0 < p <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def tail(values, levels=TAIL_LEVELS):
    """(p, value, samples beyond) for the highest level in `levels` with at
    least MIN_BEYOND samples beyond it, or None when no level has."""
    for p in sorted(levels, reverse=True):
        if values and beyond(values, p) >= MIN_BEYOND:
            return p, percentile(values, p), beyond(values, p)
    return None


def summary(name, values, unit):
    """One line: median, tail percentile, sample count, samples beyond."""
    med = statistics.median(values)
    t = tail(values)
    if t is None:
        tail_text = ("no tail percentile: %d samples, none with >= %d beyond"
                     % (len(values), MIN_BEYOND))
    else:
        p, v, n_beyond = t
        tail_text = "p%g %.6g %s, %d samples, %d beyond" % (
            p * 100, v, unit, len(values), n_beyond)
    return "%-24s median %.6g %s; %s" % (name, med, unit, tail_text)
