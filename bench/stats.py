"""Summaries of op times that give every corpus entry the same weight."""

from __future__ import annotations

import statistics
from typing import Sequence


def quantile(values: Sequence[float], weights: Sequence[float], q: float) -> float:
    """Quantile of weighted samples: each sample sits at the middle of its
    share of the cumulative weight, and q interpolates linearly between
    neighbours, so the estimate does not jump where one corpus entry's
    weight ends and the next one's begins."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    at, acc = [], 0.0
    for _, w in pairs:
        at.append((acc + 0.5 * w) / total)
        acc += w
    if q <= at[0]:
        return pairs[0][0]
    for j in range(1, len(pairs)):
        if q <= at[j]:
            frac = (q - at[j - 1]) / (at[j] - at[j - 1])
            return pairs[j - 1][0] + frac * (pairs[j][0] - pairs[j - 1][0])
    return pairs[-1][0]


def stratum_mean(samples, strata) -> float:
    """Mean per corpus entry of per-op values, then mean across entries."""
    by = {}
    for s, v in zip(strata, samples):
        by.setdefault(s, []).append(v)
    return statistics.fmean(statistics.fmean(v) for v in by.values())
