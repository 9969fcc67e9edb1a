"""In-memory span recorder with self-time arithmetic and GC attribution.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (None at top level). Spans are appended when they open and
closed in place, so the list stays in start order and is only read once
the traced run is over.
"""

import time
from collections import Counter

NAME, START, END, PARENT = range(4)


class Recorder:
    """Collects spans, counters and cyclic-GC pauses for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.gc_pause: Counter = Counter()
        self.gc_collections: Counter = Counter()
        self._stack: list[int] = []
        self._gc_started: float | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        self.spans[index][END] = self.clock()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def wrap(self, name: str, fn, count=None):
        """``fn`` run inside a span; ``count(result, args, kwargs)`` runs
        inside the same span to update counters."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(result, args, kwargs)
                return result
            finally:
                self.close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: charge each pause to the innermost open span."""
        if phase == "start":
            self._gc_started = self.clock()
            return
        if self._gc_started is None:
            return
        layer = self.current() or "(none)"
        self.gc_pause[layer] += self.clock() - self._gc_started
        self.gc_collections[layer] += 1
        self._gc_started = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` wall time (a span nested inside another of
    the same name is not counted twice), ``self`` time and span ``count``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = out.setdefault(span[NAME], {"total": 0.0, "self": 0.0, "count": 0})
        row["self"] += own[index]
        row["count"] += 1
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            row["total"] += span[END] - span[START]
    return out
