"""In-memory spans recorded around the benchmark's calls into the package.

A span is (name, start_ns, end_ns, parent, op): parent is the index of the
enclosing span or -1, and op is the id of the benchmark operation that
caused it.  Spans stay in memory until the run ends and are then written
out in one file.  The package itself is not instrumented; every span wraps
a call the benchmark makes into one module's public functions.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import nullcontext
from time import perf_counter_ns

_NULL_SPAN = nullcontext()


class NullTracer:
    """Stand-in for untraced passes: spans cost one shared no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def new_op(self) -> int:
        return -1


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tr = self._tracer
        parent = tr._stack[-1] if tr._stack else -1
        self._index = len(tr.spans)
        tr.spans.append([self._name, perf_counter_ns(), 0, parent, tr.op])
        tr._stack.append(self._index)
        return self

    def __exit__(self, *exc):
        tr = self._tracer
        tr.spans[self._index][2] = perf_counter_ns()
        tr._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def new_op(self) -> int:
        self.op += 1
        return self.op

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == name]

    def by_op(self, name: str) -> dict[int, float]:
        """Op id -> duration in seconds, for spans with this name."""
        return {s[4]: (s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == name}

    def child_time(self, name: str) -> dict[int, float]:
        """Op id -> summed duration in seconds of the direct children of
        the span with this name."""
        parents = {i: s[4] for i, s in enumerate(self.spans) if s[0] == name}
        out = dict.fromkeys(parents.values(), 0.0)
        for s in self.spans:
            if s[3] in parents:
                out[parents[s[3]]] += (s[2] - s[1]) * 1e-9
        return out

    def median(self, name: str, scale: float = 1.0) -> float | None:
        """Median duration of the spans with this name times scale, or
        None when there are none."""
        d = self.durations(name)
        return scale * statistics.median(d) if d else None

    def dump(self, path) -> None:
        """Write all spans as gzipped JSON; times are ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[n, a - t0, b - t0, p, o] for n, a, b, p, o in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
