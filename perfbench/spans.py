"""A stdlib span recorder: spans kept in memory, self time on demand.

A span is ``(name, start, end, parent)`` where ``parent`` is the index
of the span that was open when it began, in the same thread or asyncio
task (tracked with a :class:`contextvars.ContextVar`, so concurrent
coroutines on one loop do not adopt each other's spans). Work handed to
an executor thread starts without a parent.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``begin``/``end`` bracket one call."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar(f"perfbench-span-{id(self)}",
                                   default=None)
        )

    def begin(self, name: str):
        """Open a span; returns the token :meth:`end` needs."""
        span = Span(name, self.clock(), 0.0, self._current.get())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        return index, self._current.set(index)

    def end(self, token) -> Span:
        index, reset = token
        span = self.spans[index]
        span.end = self.clock()
        self._current.reset(reset)
        return span

    def ancestors(self, index: int):
        """Names of the spans enclosing span ``index``, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return [
        span.duration - covered(span.start, span.end,
                                children.get(index, []))
        for index, span in enumerate(spans)
    ]
