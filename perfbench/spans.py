"""Span tracing and the arithmetic behind the benchmark's metrics.

A ``Tracer`` wraps functions at the module attribute their caller looks up
(``latentscore.scoring.grad_g`` is the name ``neg_hessian`` resolves, not the
definition in ``model_core``) and records one span per call: name, start,
end, parent and thread.  Spans stay in memory until the run ends.

Parents come from a per-thread stack.  A span opened on a thread whose stack
is empty (a sweep worker) takes as parent the innermost open span of the
thread that opened the current top-level span, so cell spans from the
worker pool nest under the ``run_sweep`` call that is waiting for them.

Nothing here imports the library: a target whose module or attribute is
gone is recorded as absent, and every metric built only from absent targets
comes out absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan
    ok: bool = True
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A function to wrap at ``module.attr``, recorded as spans named ``span``.

    ``capture(args, kwargs, result)`` may return a small value kept on the
    span, for counts that only the result carries.
    """

    module: str
    attr: str
    span: str
    capture: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack: list[Span] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            caller = self._caller_stack
            parent = caller[-1].id if caller else None
        span = Span(next(self._ids), parent, name, threading.get_ident(),
                    perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span, ok: bool = True, info=None) -> None:
        span.end = perf_counter()
        span.ok = ok
        span.info = info
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def top(self, name: str):
        """A top-level span on the calling thread; worker spans nest in it."""
        if self._stack():
            raise RuntimeError("top-level span opened inside another span")
        self._caller_stack = self._stack()
        span = self.open(name)
        ok = False
        try:
            yield span
            ok = True
        finally:
            self.close(span, ok)
            self._caller_stack = None

    def wrap(self, fn: Callable, name: str, capture: Callable | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, ok=False)
                raise
            self.close(span, info=capture(args, kwargs, result)
                       if capture else None)
            return result
        return traced

    def install(self, targets) -> None:
        """Bind a wrapper at every target that exists; note the rest."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for t in targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.absent.add(t.span)
                continue
            original = getattr(module, t.attr, None)
            if not callable(original):
                self.absent.add(t.span)
                continue
            self._patched.append((module, t.attr, original))
            setattr(module, t.attr, self.wrap(original, t.span, t.capture))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Arithmetic.

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (worker threads) or outlive the parent's
    interval; each instant of the parent counts at most once and only inside
    the parent's own interval.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(p.id, []).append((lo, hi))
    return {s.id: s.duration - union_length(children.get(s.id, ()))
            for s in spans}


class Tail(NamedTuple):
    value: float
    percentile: float
    samples: int


def tail(samples) -> Tail | None:
    """The highest percentile with at least ten samples beyond it.

    That is the nearest-rank value at rank n - 10 of n sorted samples, at
    percentile 100 * (n - 10) / n.  Fewer than 11 samples give no tail.
    """
    n = len(samples)
    if n < 11:
        return None
    return Tail(sorted(samples)[n - 11], 100.0 * (n - 10) / n, n)


class Ratio(NamedTuple):
    """A ratio kept with the base it was taken over."""

    value: float
    part: float
    base: float


def ratio(part: float, base: float) -> Ratio:
    """part / base; an empty base (nothing attempted) gives 0."""
    return Ratio(part / base if base else 0.0, part, base)


def worker_busy_ratio(cell_seconds: float, threads: int,
                      wall_seconds: float) -> Ratio:
    """Sum of cell span time over the capacity the workers had."""
    return ratio(cell_seconds, threads * wall_seconds)
