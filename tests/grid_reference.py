"""The sampled best response that ``exact_best_response`` replaced, kept as an
independent reference for it.

For a fixed own demand y the best quotes and rho are closed forms
(DeviationEvaluator.best_message), so the best response maximizes g(y), the
utility of the best message at demand y. This search samples g at y = 0, at
the kinks of the allocation (demand_kinks), at the incumbent demand and on a
log grid with sparse tails, then refines the best local maxima by golden
section, in log y off 0 where samples can lie decades apart: each sampled
local maximum off a kink, between its neighbours, and each side of a kink
whose neighbour there is no higher and where the exact one-sided slope of g
(local_model) rises away from it, up to that neighbour. No bracket holds a
kink. `budget` caps the utility calls; the incumbent is a candidate, so the
gain is never negative.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from mcastmech.equilibrium import DEMAND_CAP, BestResponseResult
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GRID_POINTS = 40  # log-spaced demands across the scales of g, 1e3 beyond each end
TAIL = (1e3, 1e6, 1e9, 1e12)  # sparse demands beyond both ends, where g is monotone
REFINE = 3  # best candidate brackets refined by golden section
WIDTH_TOL = 1e-8  # relative bracket width at which golden section stops


def demand_grid(y0: float, kinks: List[float], knees: List[float]
                ) -> Tuple[List[float], List[bool]]:
    """Sorted demands at which g is sampled: 0, the incumbent y0, the
    kinks, a log grid across the scales (knees, kinks, y0) and sparse
    tails out to 1e15 times past them. Points closer than rounding noise
    in g would fake local maxima, so each cluster keeps one (y0 if in it).
    Also returns, per point, whether its cluster holds a kink."""
    scales = [*knees, *kinks] + ([y0] if y0 > 0.0 else [])
    lo = max(min(scales) / 1e3, 1e-300)
    hi = max(min(max(scales) * 1e3, DEMAND_CAP), lo)
    step = (hi / lo) ** (1.0 / (GRID_POINTS - 1))
    points = {0.0, y0, *kinks, *(lo * step ** j for j in range(GRID_POINTS))}
    points.update(p for t in TAIL for p in (lo / t, hi * t))
    grid, kinked = [], []
    for y in sorted(p for p in points if p <= DEMAND_CAP):
        if grid and y - grid[-1] <= KINK_TOL * y:
            if y == y0:
                grid[-1] = y
            kinked[-1] = kinked[-1] or y in kinks
            continue
        grid.append(y)
        kinked.append(y in kinks)
    return grid, kinked


def grid_best_response(instance, profile, ki, params, budget: int = 1000
                       ) -> BestResponseResult:
    ev = DeviationEvaluator(instance, profile, params, ki)
    current = profile[ki].copy()
    base = ev.utility(current)
    best = [base, current]

    def g(y: float) -> float:
        msg = ev.best_message(y, current)
        v = ev.utility(msg)
        if v > best[0]:
            best[:] = [v, msg]
        return v

    grid, kinked = demand_grid(current.y, *ev.demand_kinks())
    grid = grid[:max(0, budget - ev.evals)]
    vals = [g(y) for y in grid]
    n = len(grid)
    candidates = []  # (sample value, index, 0 off a kink, else the side of the kink)
    for j in range(1, n):
        left, right = vals[j - 1] <= vals[j], j + 1 == n or vals[j + 1] <= vals[j]
        if not kinked[j]:
            if left and right:
                candidates.append((vals[j], j, 0))
        else:
            candidates += [(vals[j], j, side) for side, lower in ((-1, left), (1, right))
                           if lower and 0 <= j + side < n]
    refined = 0
    for _, j, side in sorted(candidates, key=lambda c: -c[0]):
        if refined == REFINE or ev.evals + 2 > budget:
            break
        if side:
            slope = ev.local_model(ev.best_message(grid[j], current), side).grad[0]
            if side * slope <= 0.0:
                continue  # g falls away from the kink on that side
            a, b = sorted((grid[j], grid[j + side]))
        else:
            a, b = grid[j - 1], grid[min(j + 1, n - 1)]
        refined += 1
        # golden section in t = y, or in t = log y when the bracket is off 0
        y_of = float if a == 0.0 else math.exp
        ta, tb = (a, b) if a == 0.0 else (math.log(a), math.log(b))
        tc, td = tb - GOLDEN * (tb - ta), ta + GOLDEN * (tb - ta)
        fc, fd = g(y_of(tc)), g(y_of(td))
        while y_of(tb) - y_of(ta) > WIDTH_TOL * y_of(tb) and ev.evals < budget:
            if fc >= fd:
                tb, td, fd = td, tc, fc
                tc = tb - GOLDEN * (tb - ta)
                fc = g(y_of(tc))
            else:
                ta, tc, fc = tc, td, fd
                td = ta + GOLDEN * (tb - ta)
                fd = g(y_of(td))
    best_val, best_msg = best
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val,
                              ev.evals < budget, [])
