"""Finite differences of one agent's own utility, kept as the independent
reference for ``DeviationEvaluator.local_model`` (the Hessian over the
message) and ``DeviationEvaluator.demand_slope`` (the slopes of a scalar).

It reads the utility only through ``DeviationEvaluator.utility``, so it
shares no derivative formula with the library.
"""

from typing import Dict, Tuple

import numpy as np

from mcastmech import Message

from search import _get, _set


def displaced(msg: Message, deltas) -> Message:
    out = msg.copy()
    for coord, d in deltas:
        _set(out, coord, _get(out, coord) + d)
    return out


def fd_hessian(ev, msg0: Message, coords, h_of, dirs) -> np.ndarray:
    """FD Hessian with per-coordinate direction: 0 central, +-1 one-sided."""
    f0 = ev.utility(msg0)
    n = len(coords)
    H = np.zeros((n, n))
    singles: Dict[Tuple[int, int], float] = {}

    def single(i: int, steps: int) -> float:
        key = (i, steps)
        if key not in singles:
            singles[key] = ev.utility(displaced(msg0, [(coords[i], steps * h_of[i])]))
        return singles[key]

    for i in range(n):
        h = h_of[i]
        if dirs[i] == 0:
            H[i, i] = (single(i, 1) - 2.0 * f0 + single(i, -1)) / h ** 2
        else:
            s = dirs[i]
            H[i, i] = (2.0 * f0 - 5.0 * single(i, s) + 4.0 * single(i, 2 * s)
                       - single(i, 3 * s)) / h ** 2
    for i in range(n):
        for j in range(i + 1, n):
            hi, hj = h_of[i], h_of[j]
            di, dj = dirs[i], dirs[j]
            if di == 0 and dj == 0:
                v = (ev.utility(displaced(msg0, [(coords[i], hi), (coords[j], hj)]))
                     - ev.utility(displaced(msg0, [(coords[i], hi), (coords[j], -hj)]))
                     - ev.utility(displaced(msg0, [(coords[i], -hi), (coords[j], hj)]))
                     + ev.utility(displaced(msg0, [(coords[i], -hi), (coords[j], -hj)]))
                     ) / (4.0 * hi * hj)
            elif di != 0 and dj == 0:
                v = (ev.utility(displaced(msg0, [(coords[i], di * hi), (coords[j], hj)]))
                     - ev.utility(displaced(msg0, [(coords[i], di * hi), (coords[j], -hj)]))
                     - single(j, 1) + single(j, -1)) / (2.0 * di * hi * hj)
            elif di == 0 and dj != 0:
                v = (ev.utility(displaced(msg0, [(coords[i], hi), (coords[j], dj * hj)]))
                     - ev.utility(displaced(msg0, [(coords[i], -hi), (coords[j], dj * hj)]))
                     - single(i, 1) + single(i, -1)) / (2.0 * dj * hj * hi)
            else:
                v = (ev.utility(displaced(msg0, [(coords[i], di * hi), (coords[j], dj * hj)]))
                     - single(i, di) - single(j, dj) + f0) / (di * hi * dj * hj)
            H[i, j] = H[j, i] = v
    return H


def fd_slopes(f, y: float, h: float) -> Tuple[float, float]:
    """Central first and second differences of a scalar f at y."""
    fp, f0, fm = f(y + h), f(y), f(y - h)
    # h * h, not h ** 2: a float power overflows past 1.3e154
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)
