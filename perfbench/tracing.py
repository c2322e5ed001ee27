"""Spans around the calls each trajcal module exposes to its callers.

The wrappers live here, in the benchmark, and are patched onto the module
attribute that the caller looks up (``trajcal.pipeline.extract_features``,
``trajcal.estimator.solve``, ...), so the program itself is not edited.
Spans are kept in memory; the per-layer figures are computed from them once
the traced sessions are over.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans, None for a root span
    start: float
    end: float = float("nan")
    error: str | None = None  # exception class name when the call raised
    count: float = 0.0  # work done, as the target's counter defines it


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")


def traced(tracer: Tracer, name: str, fn, count=None, on_result=None):
    """``fn`` wrapped in a span. ``count(args, kwargs, result)`` gives the
    span's work count; ``on_result(args, kwargs, result)`` runs after the span
    closes, so whatever it does is not charged to any caller's self time
    unless that caller is itself traced (keep it to storing references)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, error=type(exc).__name__)
            raise
        if count is not None:
            tracer.spans[index].count = float(count(args, kwargs, result))
        tracer.close(index)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, targets):
    """Patch each ``(owner, attribute, span name, count, on_result)`` target
    for the duration of the block, then put the originals back."""
    originals = []
    try:
        for owner, attr, name, count, on_result in targets:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, traced(tracer, name, original, count, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover. A span whose parent is None, or names no span recorded before
    it, is a root; child intervals are clipped to the parent and overlaps
    merged."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if has_parent(span, i):
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def has_parent(span: Span, index: int) -> bool:
    # a parent opens before its children, so it sits earlier in the list
    return span.parent is not None and 0 <= span.parent < index


def has_ancestor(spans, index: int, name: str) -> bool:
    while has_parent(spans[index], index):
        index = spans[index].parent
        if spans[index].name == name:
            return True
    return False


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    count: float = 0.0


def layer_totals(spans, split: dict[str, str] | None = None) -> dict[str, LayerTotals]:
    """Per span name: calls, summed span time, summed self time, calls that
    raised, and summed work counts. For a name listed in ``split`` (name ->
    ancestor name) its spans are also tallied under ``"in:<ancestor>/<name>"``
    or ``"out:<ancestor>/<name>"``, by whether a span of that ancestor name
    encloses them."""
    split = split or {}
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        keys = [span.name]
        ancestor = split.get(span.name)
        if ancestor is not None:
            side = "in" if has_ancestor(spans, i, ancestor) else "out"
            keys.append(f"{side}:{ancestor}/{span.name}")
        for key in keys:
            t = totals.setdefault(key, LayerTotals())
            t.calls += 1
            t.busy_s += span.end - span.start
            t.self_s += selfs[i]
            t.failed += span.error is not None
            t.count += span.count
    return totals
