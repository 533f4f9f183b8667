"""In-memory spans recorded by the benchmark around each public library call.

A span has a name, a start and end time, the span that caused it, the op it
belongs to, and optional work counts (trials, steps). Spans are kept in
memory and written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "counts")

    def __init__(self, sid, name, parent, op, start, counts):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                **({"counts": self.counts} if self.counts else {})}


class Tracer:
    """Records nested spans; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, self.op, perf_counter(), counts)
        self.spans.append(rec)
        self._stack.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def median_s(self, name: str) -> float:
        return statistics.median(s.duration for s in self.by_name(name))

    def rate(self, name: str, count: str) -> float:
        """Sum of a work count over the summed duration of the named spans."""
        spans = self.by_name(name)
        return sum(s.counts[count] for s in spans) / sum(s.duration for s in spans)

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s.as_dict(), "self": own[s.sid]}) + "\n")


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    op = None
    _NULL = nullcontext()

    def span(self, name: str, **counts):
        return self._NULL
