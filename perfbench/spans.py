"""Outside-in span recording around the library's public functions.

A `Tracer` replaces module attributes (the names `match_pipeline`,
`forward` and `loss_gradient` look up at call time) with wrappers that
record a span per invocation: name, start, end, parent span and the
benchmark call it belongs to, plus counts taken from the arguments and the
result after the span has closed.  Spans stay in memory; `dump` writes
them out.  Nothing in the library is edited, and `Tracer.installed`
restores every original attribute when it exits.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "call"


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "counts")

    def __init__(self, name, parent, call):
        self.name = name
        self.parent = parent
        self.call = call
        self.start = self.end = 0.0
        self.counts = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "call": self.call, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = -1

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, self.call)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, count=None):
        """`fn` recording a span named `name`; `count(args, result)` gives its counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, out)
            return out
        return traced

    @contextmanager
    def installed(self, patches):
        """Swap in wrappers for `(owner, attribute, span name, count)` entries."""
        saved = []
        try:
            for owner, attr, name, count in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def dump(path, extra, **span_lists) -> None:
    """Write `extra` and each named span list (parents index into their own list)."""
    with open(path, "w") as f:
        json.dump({**extra, **{name: [s.as_dict() for s in spans]
                               for name, spans in span_lists.items()}}, f)
        f.write("\n")


def per_call(spans):
    """Per benchmark call: call time, and per span name total time, self time, last counts."""
    children_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children_time[s.parent] += s.end - s.start
    calls = {}
    for idx, s in enumerate(spans):
        if s.call < 0:
            continue
        rec = calls.setdefault(s.call, {"call_s": 0.0, "total": {}, "self": {},
                                        "counts": {}})
        dur = s.end - s.start
        if s.name == ROOT:
            rec["call_s"] = dur
            rec["root_self"] = dur - children_time[idx]
            continue
        rec["total"][s.name] = rec["total"].get(s.name, 0.0) + dur
        rec["self"][s.name] = rec["self"].get(s.name, 0.0) + dur - children_time[idx]
        if s.counts is not None:
            rec["counts"][s.name] = s.counts
    return [calls[c] for c in sorted(calls)]


def coverage(calls) -> float:
    """Share of call time spent in a recorded layer rather than between them."""
    total = sum(c["call_s"] for c in calls)
    uncovered = sum(c["root_self"] for c in calls)
    return (total - uncovered) / total


def median_of(calls, value) -> float:
    return float(np.median([value(c) for c in calls]))
