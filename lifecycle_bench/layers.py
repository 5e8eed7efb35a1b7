"""Fold a traced run's Chrome trace into per-layer numbers.

The lifecycle binary wraps every call into a layer in a span named
"layer.<layer>"; the library's own spans ("oracle.level_run",
"server.shard", ...) land in the same trace.  For each layer this computes

  calls   number of spans
  busy    summed span time over all threads (thread-seconds: the per-tree
          calls of a parallel build overlap in wall time)
  self    busy minus the time covered by layer spans nested inside it on
          the same thread
  share   self / sum of self over the workload's layers (check.* layers,
          the benchmark's own verification, are left out of the sum)

Library spans are attributed to the innermost layer span enclosing them on
their own thread, or else to the innermost layer span of the calling
thread (tid 0) that encloses them in time, so kernel spans that run on
worker threads inside a layer call count towards it.
"""

import collections
import json
import statistics

LAYER = "layer."


class Span:
    __slots__ = ("name", "tid", "start", "end", "children_ns", "layer")

    def __init__(self, ev):
        self.name = ev["name"]
        self.tid = ev["tid"]
        # ts/dur are microseconds with three decimals: integral nanoseconds.
        self.start = round(float(ev["ts"]) * 1000)
        self.end = self.start + round(float(ev["dur"]) * 1000)
        self.children_ns = 0
        self.layer = None

    @property
    def dur(self):
        return self.end - self.start

    def encloses(self, other):
        return self.start <= other.start and other.end <= self.end


def load(path):
    with open(path) as f:
        return [Span(ev) for ev in json.load(f)["traceEvents"]]


def _nest(spans):
    """Yield (span, innermost enclosing span or None) per thread, in start
    order (parents before children on equal starts)."""
    by_tid = collections.defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s.start, -s.dur))
        stack = []
        for s in tid_spans:
            while stack and not stack[-1].encloses(s):
                stack.pop()
            yield s, (stack[-1] if stack else None)
            stack.append(s)


class Aggregate:
    def __init__(self, spans):
        layers = [s for s in spans if s.name.startswith(LAYER)]
        for s, parent in _nest(layers):
            if parent is not None:
                parent.children_ns += s.dur
        self.durations = collections.defaultdict(list)  # layer -> [ns]
        self.self_ns = collections.Counter()
        for s in layers:
            name = s.name[len(LAYER):]
            self.durations[name].append(s.dur)
            self.self_ns[name] += s.dur - s.children_ns
        self.total_self_ns = sum(v for k, v in self.self_ns.items()
                                 if not k.startswith("check."))

        # Library spans: attribute each to a layer.
        main_layers = sorted((s for s in layers if s.tid == 0),
                             key=lambda s: (s.start, -s.dur))
        self.internal = collections.defaultdict(
            lambda: {"calls": 0, "busy_ns": 0, "layers": collections.Counter()})
        everything = layers + [s for s in spans if not s.name.startswith(LAYER)]
        for s, parent in _nest(everything):
            if s.name.startswith(LAYER):
                s.layer = s.name[len(LAYER):]
                continue
            layer = parent.layer if parent is not None else None
            if layer is None:
                enclosing = [m for m in main_layers if m.encloses(s)]
                if enclosing:
                    layer = min(enclosing, key=lambda m: m.dur).name[len(LAYER):]
            s.layer = layer or "(outside layers)"
            rec = self.internal[s.name]
            rec["calls"] += 1
            rec["busy_ns"] += s.dur
            rec["layers"][s.layer] += 1
        self.internal_by_layer = collections.defaultdict(int)  # (name, layer)
        for s in spans:
            if not s.name.startswith(LAYER):
                self.internal_by_layer[(s.name, s.layer)] += s.dur

    def calls(self, layer):
        return len(self.durations.get(layer, []))

    def busy_s(self, layer):
        return sum(self.durations.get(layer, [])) / 1e9

    def self_s(self, layer):
        return self.self_ns.get(layer, 0) / 1e9

    def share(self, layer):
        if layer.startswith("check.") or not self.total_self_ns:
            return 0.0
        return self.self_ns.get(layer, 0) / self.total_self_ns

    def median_ms(self, layer):
        d = self.durations.get(layer)
        return statistics.median(d) / 1e6 if d else 0.0

    def internal_busy_s(self, name, in_layers):
        """Busy time of library span `name` inside any of `in_layers`."""
        return sum(v for (n, layer), v in self.internal_by_layer.items()
                   if n == name and layer in in_layers) / 1e9

    def layer_names(self):
        return sorted(self.durations, key=lambda k: -self.self_ns[k])
