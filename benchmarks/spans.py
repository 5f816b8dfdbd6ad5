"""In-memory spans around the benchmark's calls into each layer.

A span is ``[name, start, end, parent, op, ok]``: the layer's name, its
``perf_counter`` interval, the index of the enclosing span (-1 at the top),
the operation it belongs to, and whether the call returned normally.  Spans
stay in memory and are written out once, when the run ends.

``NULL`` has the same interface and records nothing, so the traced and the
untraced runs execute the same workload code.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag(self, **values) -> None:
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tags: dict[int, dict] = {}
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, False]
        self.spans.append(span)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[5] = True
            return result
        finally:
            span[2] = perf_counter()
            span[1] = start
            self._stack.pop()

    def tag(self, **values) -> None:
        """Attach values (size, pivots, ...) to the most recent span."""
        self.tags.setdefault(len(self.spans) - 1, {}).update(values)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "ok": s[5]}
                row.update(self.tags.get(i, {}))
                fh.write(json.dumps(row) + "\n")
