"""In-memory spans around the benchmark's own calls into the library.

A span is [name, start, end, parent index]; its layer is the name's first
dotted component (the ingham module called, or `reproduce` for one replayed
record kind).  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import mean


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name: str, v: float) -> None:
        self.counts[name] = max(self.counts.get(name, v), v)

    def key(self, name: str, k) -> None:
        self.keys.setdefault(name, set()).add(k)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class NullTracer(Tracer):
    """Records nothing; the untraced passes run through it."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass

    def high(self, name: str, v: float) -> None:
        pass

    def key(self, name: str, k) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """busy_s, self_s and calls per layer.

    busy counts each outermost span of a layer once (a span nested in a span
    of the same layer adds nothing); self subtracts the time covered by
    direct children, which never overlap because the run has one thread.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        layer = layer_of(name)
        st = out.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and layer_of(spans[p][0]) != layer:
            p = spans[p][3]
        if p < 0:
            st["busy_s"] += t1 - t0
    return out


def span_total(spans: list[list]) -> float:
    """Total duration of the root spans."""
    return sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)


def span_mean(spans: list[list], name: str) -> float:
    """Mean duration of the spans called `name`; 0.0 when there are none."""
    durs = [t1 - t0 for n, t0, t1, _ in spans if n == name]
    return mean(durs) if durs else 0.0
