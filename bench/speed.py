"""Machine-speed probe: a fixed kernel timed between and during ops.

On a shared machine the same work can take 15-40% longer from one second
to the next, for every process alike. The kernel below does a fixed mix
of interpreter work (tuple-keyed dicts, float arithmetic) and small numpy
least-squares solves and uses nothing from mcastmech, so a change to the
library cannot move it. It is timed between ops and, from a SIGALRM
handler, every ``DURING_S`` seconds inside an op; the kernel time taken
inside an op is subtracted from the op's time. An op's time is then
multiplied by ``REFERENCE_S / kernel time``, which reads it in seconds of
a machine on which the kernel takes ``REFERENCE_S``. The kernel time is
the mean of the samples taken inside the op when there are enough of
them (the op's own speed), otherwise the mean of the samples nearest to
it. A mean, not a median: the machine flips between a fast and a slow
state many times a second, and an op's time grows with the share of time
spent in the slow one, as the mean kernel time does. The correction is partial: the kernel tracks interpreted code
closely and the LAPACK calls of the solver less so.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import List

import numpy as np

#: Kernel time at the reference speed: about its median on the 2-core
#: x86-64 machine (2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS on one
#: thread) the benchmark was defined on.
REFERENCE_S = 0.002

_KEYS = [(i % 97, f"l{i % 13}") for i in range(2400)]
_A = np.arange(144.0).reshape(12, 12) % 7.0 + 3.0 * np.eye(12)
_B = np.linspace(0.0, 1.0, 12)


def kernel() -> float:
    table = {}
    acc = 0.0
    for i, key in enumerate(_KEYS):
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(table[key])
    for _ in range(24):
        acc += float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
    return acc


class SpeedProbe:
    """Times the kernel between ops, at most every ``EVERY_S`` seconds, and
    inside ops, every ``DURING_S`` seconds. An op with at least
    ``INSIDE_MIN`` samples of its own is rescaled by their mean; a shorter
    op by the mean of the ``NEAREST`` samples taken closest to it."""

    EVERY_S = 0.04
    DURING_S = 0.05
    INSIDE_MIN = 5
    NEAREST = 25

    def __init__(self) -> None:
        self.at: List[float] = []
        self.kernel_s: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    @contextmanager
    def during(self, enabled: bool = True):
        """Sample every ``DURING_S`` seconds while the block runs."""
        if not enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.DURING_S, self.DURING_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, t0: float, t1: float) -> List[float]:
        """Kernel times of the samples taken within [t0, t1]."""
        return self.kernel_s[bisect_left(self.at, t0):bisect_right(self.at, t1)]

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the kernel time that applies to [t0, t1]."""
        inside = self.inside(t0, t1)
        if len(inside) < self.INSIDE_MIN:
            mid = bisect_left(self.at, 0.5 * (t0 + t1))
            hi = min(len(self.at), max(mid + self.NEAREST // 2 + 1, self.NEAREST))
            inside = self.kernel_s[max(0, hi - self.NEAREST):hi]
        return REFERENCE_S / statistics.fmean(inside)
