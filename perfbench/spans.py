"""In-memory spans: name, start, end and the enclosing span.

Spans are kept in a list for the life of the traced process and written
out once at its end. A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()


def durations(spans) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Per-name lists of total and self durations of finished spans."""
    total: dict[str, list[float]] = defaultdict(list)
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    own: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), covered in zip(spans, children):
        total[name].append(end - start)
        own[name].append(end - start - covered)
    return total, own


def root_time(spans) -> float:
    """Summed duration of the top-level spans, which equals the summed self
    time of every span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
