"""In-memory spans and counters for the traced benchmark run.

A span records one call into a layer: its name (``<layer>.<function>``),
start and end (``time.perf_counter``), the index of the enclosing span and
the op it belongs to (``op-<i>`` for a timed op, ``setup-<r>`` for a fixture
build, ``outside`` otherwise). Spans nest strictly, as the
benchmark is single threaded, so a span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = []  # (op, name, value)
        self.op = "outside"
        self._stack = []

    @contextmanager
    def in_op(self, op_id: str):
        outer, self.op = self.op, op_id
        try:
            yield
        finally:
            self.op = outer

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts.append((self.op, name, value))

    def self_times(self) -> list[tuple[str, str, float]]:
        """(name, op, self seconds) for every span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, op, end - start - covered[i])
                for i, (name, start, end, _, op) in enumerate(self.spans)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def op_kind(op_id: str) -> str:
    return op_id.split("-", 1)[0]


def aggregate(tracer: Tracer, kind: str, name: str, per_call: bool = False):
    """Median of a span's self time (kind "span") or a counter (kind "count").

    Values are summed per op, then the median is taken over the timed ops.
    A name seen only in fixture builds is summed per build instead.
    ``per_call`` takes the median over single observations. Returns
    (value, where) with where one of "op", "setup" or None when the name
    was never recorded in either.
    """
    if kind == "span":
        obs = [(op, t) for n, op, t in tracer.self_times() if n == name]
    else:
        obs = [(op, v) for op, n, v in tracer.counts if n == name]
    for where in ("op", "setup"):
        vals = [(op, v) for op, v in obs if op_kind(op) == where]
        if not vals:
            continue
        if per_call:
            return statistics.median(v for _, v in vals), where
        sums: dict[str, float] = {}
        for op, v in vals:
            sums[op] = sums.get(op, 0) + v
        return statistics.median(sums.values()), where
    return 0, None
