"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the library, around each call the
benchmark makes into a layer. A span's name is ``<layer>.<call>``; the
layer is the mcastmech module the call belongs to (``model``,
``centralized``, ``mechanism``, ``equilibrium``, ``cli``) or ``bench``
for the benchmark's own glue. Calls too frequent to record one by one
(a deviation search's utility evaluations) are folded into one
aggregate per enclosing span, holding a call count and a total time.

A layer's self time is the duration of its spans minus the part covered
by their child spans and aggregates.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class NullTracer:
    """Untraced run: every call goes straight to the library."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records spans (name, start, end, parent, op) and per-op counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        # (parent span index, name) -> [calls, seconds]
        self.aggregates: Dict[tuple, list] = {}
        self.counts: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: Dict[str, float] = {}
        self.op: object = None
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, -float("inf")):
            self.peaks[name] = value

    def _aggregate(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else -1, name)
        agg = self.aggregates.get(key)
        if agg is None:
            self.aggregates[key] = [1, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Time every call of ``owner.attr`` into an aggregate for the
        enclosing span, and restore the attribute afterwards."""
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._aggregate(name, time.perf_counter() - t0)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with ``spans``."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (parent, _), (_, seconds) in self.aggregates.items():
            if parent >= 0:
                covered[parent] += seconds
        return [(t1 - t0) - covered[j]
                for j, (_, t0, t1, _, _) in enumerate(self.spans)]

    def per_op(self) -> Dict[object, Dict[str, float]]:
        """Per op: calls and total seconds per span name (``calls:<name>``,
        ``span:<name>``, aggregates included), self seconds per layer
        (``self:<layer>``) and the op's counters."""
        out: Dict[object, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, t0, t1, _, op), own in zip(self.spans, self.self_times()):
            row = out[op]
            row["calls:" + name] += 1
            row["span:" + name] += t1 - t0
            row["self:" + layer_of(name)] += own
        for (parent, name), (calls, seconds) in self.aggregates.items():
            row = out[self.spans[parent][4] if parent >= 0 else None]
            row["calls:" + name] += calls
            row["span:" + name] += seconds
            row["self:" + layer_of(name)] += seconds
        for op, counts in self.counts.items():
            for key, value in counts.items():
                out[op][key] += value
        return out

    def durations(self, name: str) -> List[tuple]:
        """(op, seconds) of every span with this name."""
        return [(op, t1 - t0) for n, t0, t1, _, op in self.spans if n == name]

    def dump(self, path: str) -> None:
        doc = {
            "spans": [{"name": n, "start": t0, "end": t1, "parent": p, "op": op}
                      for n, t0, t1, p, op in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": c, "seconds": s}
                           for (p, n), (c, s) in self.aggregates.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
