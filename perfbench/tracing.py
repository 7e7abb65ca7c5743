"""Spans and counters recorded from the benchmark's own wrappers.

Nothing under ``src/`` is changed: :func:`instrument` replaces, for the
duration of a traced run, the public functions the estimators call with
wrappers that record a span (name, start, end, parent, run id) and count the
work that passed through.  Spans are held in memory and written out when the
benchmark ends.
"""

from __future__ import annotations

import functools
import pickle
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

import owcrelay.geometry
import owcrelay.links
import owcrelay.mobility
import owcrelay.outage


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": self.run}
            )

    def run_spans(self, run: int) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_seconds_by_name(spans) -> dict[str, float]:
    """Summed self time per span name, in seconds."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += selfs[s["id"]] * 1e-9
    return dict(out)


def _wrap(tracer, undo, owner, attr, span_name, count=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if count is not None:
            # counting is the tracer's own work: keep it out of the caller's self time
            with tracer.span("trace.count"):
                count(args, kwargs, result)
        return result

    undo.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def _count_contains(tracer):
    def count(args, kwargs, inside):
        region, points = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
        n = points.shape[0]
        tracer.counts["geometry.pairs_tested"] += n
        tracer.counts["geometry.pairs_blocked"] += int(np.count_nonzero(inside))
        box = region.bbox()
        if box is not None:
            x, y = points[:, 0], points[:, 1]
            hit = (x >= box.x0) & (x <= box.x1) & (y >= box.y0) & (y <= box.y1)
            tracer.counts["geometry.pairs_in_bbox"] += int(np.count_nonzero(hit))

    return count


def _count_sdf(tracer):
    def count(args, kwargs, result):
        tracer.counts["quadrature.sdf_calls"] += 1
        tracer.counts["quadrature.cells"] += int(np.atleast_2d(args[1]).shape[0])

    return count


def _counter(tracer, key, amount):
    def count(args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)

    return count


@contextmanager
def instrument(tracer: Tracer):
    """Install the timing wrappers; restore the originals on exit."""
    undo: list = []
    region = owcrelay.geometry.StadiumRegion
    try:
        _wrap(tracer, undo, region, "contains", "geometry.contains", _count_contains(tracer))
        _wrap(tracer, undo, region, "signed_distance", "geometry.sdf", _count_sdf(tracer))
        _wrap(
            tracer, undo, owcrelay.outage, "sample_human_positions", "mobility.sample",
            _counter(tracer, "mobility.points", lambda a, k, r: len(r)),
        )
        _wrap(
            tracer, undo, owcrelay.outage, "evaluate_sinr", "links.sinr",
            _counter(tracer, "links.sinr_columns", lambda a, k, r: r[0].shape[1]),
        )
        _wrap(
            tracer, undo, owcrelay.links, "impulse_response", "channel.cir",
            _counter(tracer, "channel.cir_calls", lambda a, k, r: 1),
        )
        _wrap(tracer, undo, owcrelay.links, "discretize_surfaces", "channel.surfaces")
        _wrap(tracer, undo, owcrelay.links, "blocked_region", "geometry.regions")
        _wrap(tracer, undo, owcrelay.mobility, "integrate_region", "quadrature.integrate")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextmanager
def count_task_bytes():
    """Count the pickled bytes of every task the estimators submit to a
    process pool.  Yields a one-element list holding the running total."""
    total = [0]

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            initargs = kwargs.get("initargs", ())
            if initargs:
                total[0] += len(pickle.dumps(initargs)) * self._max_workers

        def submit(self, fn, /, *args, **kwargs):
            total[0] += len(pickle.dumps((fn, args, kwargs)))
            return super().submit(fn, *args, **kwargs)

    original = owcrelay.outage.ProcessPoolExecutor
    owcrelay.outage.ProcessPoolExecutor = CountingPool
    try:
        yield total
    finally:
        owcrelay.outage.ProcessPoolExecutor = original
