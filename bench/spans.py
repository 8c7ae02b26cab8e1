"""In-memory spans recorded around calls into stridect, from outside it.

A traced run patches module attributes where callers look them up (for
example ``stridect.pipeline.refine_bands``) and class attributes for model
methods, records one span per call, and restores every original on exit.
No code inside the package changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


class Tracer:
    """Records spans for calls made while patched; ``op`` tags each span
    with the operation it belongs to (None outside operations)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(*args, **kwargs)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, counter=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def op_totals(self):
        """Per-operation, per-name sums: calls, seconds, self seconds and
        every recorded count. Spans outside operations are left out."""
        by_op: dict = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            if span.op is None:
                continue
            t = by_op.setdefault(span.op, {}).setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += span.duration
            t["self_s"] += self_s
            for k, v in span.counts.items():
                t[k] = t.get(k, 0) + v
        return by_op
