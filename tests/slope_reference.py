"""The slope-driven best response that the per-piece model in
``exact_best_response`` replaced, kept as an independent reference for it.

It maximizes g(y), the utility of best_message(y), piece by piece over the
same pieces (kinks merged within KINK_TOL, then clip points). The exact end
slopes g'(a+) and g'(b-) (demand_slope) place the maximum on a piece
[a, b]: at a if g'(a+) <= 0, and at b too if g'(b-) > 0; else at b if
g'(b-) >= 0, unless g' is not positive where the curvature in x = r*y
turns (bisected for); else, or before such a turn, at the root of g', by
Newton steps on g' safeguarded by bisection, in log y off 0, to a relative
width of 1e-8. The last piece ends where g' turns negative, stepping out
from max(a, knees) by squared factors, or at DEMAND_CAP, where g is also
read. g is evaluated at every piece end and root, and at 0 if r jumps
there. `budget` caps the utility and slope evaluations together.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from mcastmech.equilibrium import _ZERO_PROBE, DEMAND_CAP, BestResponseResult
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator

WIDTH_TOL = 1e-8  # relative width at which a root or turn counts as found


class _Truncated(Exception):
    """The evaluation budget ran out before every piece was searched."""


def slope_best_response(instance, profile, ki, params, budget: int = 1000
                        ) -> BestResponseResult:
    ev = DeviationEvaluator(instance, profile, params, ki)
    current = profile[ki].copy()
    base = ev.utility(current)
    best = [base, current]
    pieces: List[Tuple[float, float, float, float]] = []

    def g(y: float) -> None:
        if ev.evals >= budget:
            raise _Truncated
        msg = ev.best_message(y, current)
        v = ev.utility(msg)
        if v > best[0]:
            best[:] = [v, msg]

    def slope(y: float, side: int) -> Tuple[float, float]:
        if ev.evals >= budget:
            raise _Truncated
        return ev.demand_slope(y, side)[:2]

    def mid(lo: float, hi: float) -> float:
        return math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi

    def inward(y: float, a: float, b: float) -> int:
        """The side of y facing the middle of (a, b): within KINK_TOL of an
        end, slopes read on the other side would be the next piece's."""
        return +1 if y - a < b - y else -1

    def root(lo: float, hi: float) -> None:
        """g at the root of g' in (lo, hi), where g'(lo+) > 0 > g'(hi-)."""
        a, b = lo, hi
        y = current.y if lo < current.y < hi else mid(lo, hi)
        while True:
            d1, d2 = slope(y, inward(y, a, b))
            lo, hi = (y, hi) if d1 > 0.0 else (lo, y)
            step = -d1 / d2 if d2 < 0.0 else math.nan  # in t = log y: step / y
            nxt = y * math.exp(min(step / y, 700.0)) if lo > 0.0 else y + step
            nxt = nxt if lo < nxt < hi else mid(lo, hi)
            if d1 == 0.0 or abs(nxt - y) <= WIDTH_TOL * nxt or hi - lo <= WIDTH_TOL * hi:
                break
            y = nxt
        g(y)

    def bend(y: float, side: int, d1: float, d2: float) -> float:
        """The sign of g's curvature in x = r*y: g''x' - g'x'' divided by
        x'/r > 0, with x' = r*(x'/r) and x'' = 2r'*(x'/r) (scale_slopes)."""
        r, dr = ev.scale_slopes(y, side)[:2]
        return d2 * r - 2.0 * d1 * dr

    kinks, knees = ev.demand_kinks()
    jump = ev.scale_slopes(0.0, +1)[3]
    ends = [_ZERO_PROBE * min(kinks + knees) if jump else 0.0]
    for y in sorted(kinks):
        if y - ends[-1] > KINK_TOL * y and y < DEMAND_CAP:
            ends.append(y)
    ends.append(DEMAND_CAP)

    def split():
        for a, b in zip(ends, ends[1:]):
            clips = sorted({y for y in ev.clip_points(a) if min(y - a, b - y) > KINK_TOL * y})
            yield from zip([a, *clips], [*clips, b if b < DEMAND_CAP else math.inf])

    complete = True
    try:
        if jump:
            g(0.0)
        for a, b in split():
            g(a)
            sa = slope(a, +1)
            lo = a
            if b < math.inf:
                sb = slope(b, -1)
                if sa[0] > 0.0 <= sb[0] and bend(a, +1, *sa) < 0.0 < bend(b, -1, *sb):
                    t0, turn = a, b  # bisect for where the curvature in x turns
                    while turn - t0 > WIDTH_TOL * turn:
                        y = mid(t0, turn)
                        side = inward(y, a, b)
                        t0, turn = (t0, y) if bend(y, side, *slope(y, side)) >= 0.0 else (y, turn)
                    if slope(turn, inward(turn, a, b))[0] <= 0.0:
                        root(a, turn)
            else:  # step out until g' <= 0 or the cap
                b, factor = min(max(a, *knees), DEMAND_CAP), 10.0
                while True:
                    if b > lo:
                        sb = slope(b, +1)  # no kink past a
                        if sb[0] <= 0.0 or b == DEMAND_CAP:
                            break
                        lo = b
                    b, factor = min(b * factor, DEMAND_CAP), factor * factor
                g(DEMAND_CAP)
            pieces.append((a, b, sa[0], sb[0]))
            if sa[0] > 0.0 and sb[0] < 0.0:
                root(lo, b)
    except _Truncated:
        complete = False
    best_val, best_msg = best
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val,
                              complete, pieces)
