"""In-memory spans recorded around calls into the ftsmooth modules.

The library itself is not instrumented. Spans come from the benchmark's
own call sites and from two public hooks: a ``Kernel`` subclass passed
through ``kernel=`` (one span per kernel evaluation) and a
``FunctionalSeries`` subclass handed to ``cross_validate`` (one span per
``subset``). The tracer is single-threaded: traced code runs serially.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from ftsmooth import FunctionalSeries, Kernel


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # spans of one benchmark operation share this id
    count: int = 0  # work done inside the span, e.g. kernel points

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced baseline."""

    @contextmanager
    def span(self, name: str):
        yield Span(name, 0.0, 0.0, None, 0)

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    count: int = 0


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span, own in zip(spans, self_times(spans)):
        t = out[span.name]
        t.calls += 1
        t.seconds += span.duration
        t.self_seconds += own
        t.count += span.count
    return out


class TracedKernel(Kernel):
    """The quartic kernel, with one span per evaluation."""

    def __init__(self, tracer: Tracer):
        super().__init__("quartic")
        self._tracer = tracer

    def __call__(self, x):
        with self._tracer.span("kernels.eval") as span:
            out = super().__call__(x)
        span.count = out.size
        return out

    eval = __call__


def traced_series(series: FunctionalSeries, tracer: Tracer) -> FunctionalSeries:
    """A copy of ``series`` whose ``subset`` calls are recorded as spans."""

    class TracedSeries(FunctionalSeries):
        def subset(self, idx):
            with tracer.span("series.subset"):
                return super().subset(idx)

    return TracedSeries(series.times, series.values, series.value_grid,
                        series.norm)
