"""In-memory span recording and self-time arithmetic.

A span is one timed call across a layer boundary: its name, start,
end, the span that was open when it started (its parent), and a tag
naming the cycle and, inside the application's statements, the
statement it served. Spans are kept in memory, one flat list per
field, while the benchmark runs and written out when it ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover. Children normally nest without overlap, but the
arithmetic takes the union of the child intervals, clipped to the
parent, so overlapping or escaping children can never produce a
negative self time.

The clock is injectable: the benchmark uses ``time.perf_counter``;
the tests drive a :class:`repro.clockwork.LogicalClock` so span trees
and their self times are exact.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

NO_PARENT = -1


class Spans:
    """Span columns: one flat list per field, so recording a span adds
    no object the garbage collector has to scan."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tags: list[str] = []

    def add(self, name: str, parent: int, start: float, end: float,
            tag: str = "") -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        self.tags.append(tag)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.names)


class SpanRecorder:
    """Collects spans and named counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans = Spans()
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.tag = ""

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = self.spans.add(name, self.stack[-1] if self.stack
                               else NO_PARENT, self.clock(), 0.0, self.tag)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans.ends[index] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line:
        ``[index, name, parent, start, end, tag]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        with open(path, "w") as out:
            for index in range(len(spans)):
                out.write(json.dumps([
                    index, spans.names[index], spans.parents[index],
                    spans.starts[index], spans.ends[index],
                    spans.tags[index]]) + "\n")


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` inside ``interval``."""
    low, high = interval
    total = 0.0
    reach = low
    for start, end in sorted(children):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Spans) -> list[float]:
    """Self time of every span, by index."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans.names]
    for index, parent in enumerate(spans.parents):
        if parent != NO_PARENT:
            children[parent].append((spans.starts[index], spans.ends[index]))
    return [
        (end - start) - covered((start, end), children[index])
        for index, (start, end) in enumerate(zip(spans.starts, spans.ends))]


def layer_totals(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time (``self_s``) and call count."""
    totals: dict[str, dict[str, float]] = {}
    for name, own in zip(spans.names, self_times(spans)):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


def top_level_seconds(spans: Spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for parent, start, end
               in zip(spans.parents, spans.starts, spans.ends)
               if parent == NO_PARENT)
