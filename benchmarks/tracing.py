"""Spans recorded from outside the package, and the statistics the harness
reports.

The tracer wraps public functions of ``nahmpole`` modules for the length of
a traced run: every module attribute that *is* one of the wrapped functions
is replaced, so calls made through ``cli``, ``series`` and ``oracle``
globals are all seen, and the originals are restored on exit.  Spans live in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
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


def self_times(spans) -> dict:
    """Map span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([iv for iv in kids if iv[1] > iv[0]])
    return out


def self_time_by_name(spans) -> dict:
    """Summed self time per span name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


class Tracer:
    """Records one span per call of each wrapped function.

    ``targets`` maps a span name to ``(function, attrs)``, where ``attrs``
    turns the call's arguments into the span's attributes (or is None).
    """

    def __init__(self, modules, targets):
        self.modules = modules
        self.targets = targets
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, name, 0.0, 0.0, parent, tracer.job,
                        attrs(*args, **kwargs) if attrs else {})
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def __enter__(self):
        for name, (fn, attrs) in self.targets.items():
            wrapped = self._wrap(name, fn, attrs)
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def tail(values, beyond: int = 10):
    """The highest percentile of ``values`` with at least ``beyond`` samples
    above it: the order statistic with exactly ``beyond`` samples after it.
    When that statistic falls below the median (fewer than ``2 * beyond + 1``
    samples) it is no tail, and the maximum is returned instead.

    Returns ``(value, level)``, ``level`` being the percentage of samples at
    or below the value.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - beyond - 1
    if rank < (n - 1) / 2:
        return xs[-1], 100.0
    return xs[rank], 100.0 * (rank + 1) / n
