"""Nested timing spans recorded by wrapping functions from outside.

A `Tracer` replaces a name in the module or class that looks it up with a
wrapper that records one span per call: its name, start, end, parent span
and the phase the benchmark was in (set-up or run).  Spans nest on the one
thread the benchmark uses, so a span's self time is its duration minus the
durations of its direct children.  Closing the tracer puts every original
object back, also when the traced code raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    phase: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Record spans around wrapped callables; restore them on close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` (a module global or a class attribute).

        `count(result, *args, **kwargs)` may return a dict of counts that
        is stored on the call's span.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(index)
            if count is not None:
                tracer.spans[index].counts = count(result, *args, **kwargs)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name=name, start=self.clock(), parent=parent,
                               phase=self.phase))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def covered_time(spans: list[Span], phase: str) -> float:
    """Time of `phase` inside some span: the sum of its top-level spans."""
    return sum(s.duration for s in spans
               if s.parent is None and s.phase == phase)
