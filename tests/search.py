"""Multi-start coordinate search for a profitable deviation, kept as an
independent cross-check of ``exact_best_response``.

Per agent: coordinate descent over the demand, every quote and rho, with a
golden-section line search per coordinate (plus one-sided probes around
the incumbent, because the demand slope is only piecewise defined), from
the incumbent, the zero message and seeded random starts, within an
evaluation budget. It shares only the ``DeviationEvaluator`` with the
library, so it can never find more than the exact best response does.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from mcastmech import Message, evaluate, zero_message
from mcastmech.equilibrium import BestResponseResult
from mcastmech.mechanism import (COORD_Q1, COORD_Q2, COORD_RHO, COORD_Y, VARIANT_SBB,
                                 DeviationEvaluator)

GAIN_REL_TOL = 1e-14  # a move must beat this (relative) to count as improvement
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _get(msg: Message, coord) -> float:
    kind, lid = coord
    if kind == COORD_Y:
        return msg.y
    if kind == COORD_RHO:
        return msg.rho
    q1, q2 = msg.q[lid]
    return q1 if kind == COORD_Q1 else q2


def _set(msg: Message, coord, value: float) -> None:
    kind, lid = coord
    if kind == COORD_Y:
        msg.y = value
    elif kind == COORD_RHO:
        msg.rho = value
    else:
        q1, q2 = msg.q[lid]
        msg.q[lid] = (value, q2) if kind == COORD_Q1 else (q1, value)


def _coord_scales(instance, profile, ki, params) -> Dict[Tuple[str, Optional[str]], float]:
    val = instance.valuation(ki)
    out = evaluate(instance, profile, params)
    y_cap = max(instance.capacity[lid] / instance.alpha[(ki, lid)]
                for lid in instance.links_of[ki])
    scales = {(COORD_Y, None): max(1.0, y_cap)}
    for lid in instance.links_of[ki]:
        q_ref = max(1.0, val.deriv(0.0), 2.0 * out.w_bar[(ki.group, lid)])
        scales[(COORD_Q1, lid)] = q_ref
        scales[(COORD_Q2, lid)] = q_ref
    if params.variant == VARIANT_SBB:
        scales[(COORD_RHO, None)] = max(1.0, 2.0 * out.r)
    return scales


def _line_search(ev, msg, coord, f_cur, scale, budget) -> Tuple[float, float]:
    """Maximize utility along one coordinate. Returns (best_value, best_theta).

    A coarse scan (with one-sided probes around the incumbent to respect
    piecewise-defined slopes) brackets the optimum, then golden-section
    narrows it. Never exceeds the evaluation budget."""
    theta0 = _get(msg, coord)
    best_t, best_f = theta0, f_cur

    def probe(theta: float) -> float:
        nonlocal best_t, best_f
        trial = msg.copy()
        _set(trial, coord, theta)
        v = ev.utility(trial)
        if v > best_f:
            best_t, best_f = theta, v
        return v

    hi = max(2.0 * theta0, scale)
    eps_probe = 1e-7 * max(1.0, abs(theta0))
    pts = {0.0, theta0 + eps_probe}
    if theta0 - eps_probe > 0.0:
        pts.add(theta0 - eps_probe)
    pts.update(theta0 + (hi - theta0) * j / 7.0 for j in range(1, 8))
    pts.update(theta0 * j / 3.0 for j in range(1, 3))
    grid = sorted(pts)
    vals = {}
    for t in grid:
        if ev.evals >= budget:
            return best_f, best_t
        vals[t] = probe(t)
    # expand upward while the right edge keeps winning
    for _ in range(3):
        top = max(vals, key=vals.get)
        if top != grid[-1] or ev.evals >= budget:
            break
        nxt = grid[-1] * 2.0 + scale
        vals[nxt] = probe(nxt)
        grid.append(nxt)
    top = max(vals, key=vals.get)
    pos = grid.index(top)
    lo = grid[pos - 1] if pos > 0 else top
    hi = grid[pos + 1] if pos + 1 < len(grid) else top
    if hi <= lo:
        return best_f, best_t
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = probe(c) if ev.evals < budget else None
    fd = probe(d) if ev.evals < budget else None
    width_tol = 1e-10 * max(1.0, abs(b))
    while fc is not None and fd is not None and (b - a) > width_tol:
        if ev.evals >= budget:
            break
        if fc >= fd:
            b, d = d, c
            fd = fc
            c = b - _GOLDEN * (b - a)
            fc = probe(c)
        else:
            a, c = c, d
            fc = fd
            d = a + _GOLDEN * (b - a)
            fd = probe(d)
    return best_f, best_t


def _descend(ev, start, coords, scales, budget, max_sweeps: int = 10):
    msg = start.copy()
    if ev.evals >= budget:
        return msg, -math.inf
    cur = ev.utility(msg)
    for _ in range(max_sweeps):
        improved = False
        for coord in coords:
            if ev.evals >= budget:
                return msg, cur
            theta0 = _get(msg, coord)
            scale = max(scales[coord], 2.0 * theta0)
            val, theta = _line_search(ev, msg, coord, cur, scale, budget)
            if val > cur + GAIN_REL_TOL * (1.0 + abs(cur)):
                _set(msg, coord, theta)
                cur = val
                improved = True
        if not improved:
            break
    return msg, cur


def search_best_response(instance, profile, ki, params, budget: int = 1000,
                         restarts: int = 8, seed: int = 0) -> BestResponseResult:
    """Multi-start coordinate-descent search for a profitable deviation."""
    ev = DeviationEvaluator(instance, profile, params, ki)
    current = profile[ki].copy()
    base = ev.utility(current)
    coords = ev.coords
    scales = _coord_scales(instance, profile, ki, params)
    rng = np.random.default_rng(seed)
    starts: List[Message] = [current.copy(), zero_message(instance, ki, params.variant)]
    while len(starts) < max(restarts, 2):
        y = float(rng.uniform(0.0, scales[(COORD_Y, None)]))
        q = {lid: (float(rng.uniform(0.0, scales[(COORD_Q1, lid)])),
                   float(rng.uniform(0.0, scales[(COORD_Q2, lid)])))
             for lid in instance.links_of[ki]}
        rho = None
        if params.variant == VARIANT_SBB:
            rho = float(rng.uniform(0.0, scales[(COORD_RHO, None)]))
        starts.append(Message(y, q, rho))

    best_msg, best_val = current.copy(), base
    for start in starts:
        if ev.evals >= budget:
            break
        msg, val = _descend(ev, start, coords, scales, budget)
        if val > best_val:
            best_msg, best_val = msg, val
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val,
                              ev.evals < budget, [])
