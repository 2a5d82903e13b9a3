"""Test-only references for the solver.

``reference_residuals`` is the per-entry loop form of the KKT residual
blocks, kept as the independent reference for ``kkt_residuals``. It reads
the instance's dicts and tuples one entry at a time and shares no array
code with the library. Its maxima use Python's ``max``, which skips a NaN,
so it is a reference for finite inputs only.

``normal_matrix`` and ``dense_direction`` are the dense form of one
interior-point direction: the full (n_x + n_m) square normal matrix and
its diagonally equilibrated solve, which the library's step replaces by
eliminating the m-block.
"""

from typing import Dict, Tuple

import numpy as np

from mcastmech import AgentId, NetworkInstance, PrimalSolution
from mcastmech.model import RATE_ATOL


def reference_residuals(instance: NetworkInstance, primal: PrimalSolution,
                        lam: Dict[str, float],
                        mu: Dict[Tuple[AgentId, str], float]
                        ) -> Tuple[float, float, float, float]:
    """Max-norm residual of the primal feasibility, dual feasibility,
    complementary slackness and stationarity blocks."""
    primal_feas = 0.0
    for ki in instance.agents:
        primal_feas = max(primal_feas, -primal.x[ki])
    link_slack = {}
    for lid in instance.link_ids:
        total = sum(primal.m[(k, lid)] for k in instance.groups_on_link[lid])
        link_slack[lid] = instance.capacity[lid] - total
        primal_feas = max(primal_feas, total - instance.capacity[lid])
    dual_feas = 0.0
    comp = 0.0
    for lid in instance.link_ids:
        dual_feas = max(dual_feas, -lam[lid])
        comp = max(comp, abs(lam[lid] * link_slack[lid]))
    stat = 0.0
    for ki in instance.agents:
        price = 0.0
        thresh = RATE_ATOL * max(instance.capacity[lid] for lid in instance.links_of[ki])
        for lid in instance.links_of[ki]:
            a = instance.alpha[(ki, lid)]
            mval = mu[(ki, lid)]
            dual_feas = max(dual_feas, -mval)
            gap = a * primal.x[ki] - primal.m[(ki.group, lid)]
            primal_feas = max(primal_feas, gap)
            comp = max(comp, abs(mval * gap))
            price += mval * a
        resid = instance.valuation(ki).deriv(primal.x[ki]) - price
        if primal.x[ki] > thresh:
            stat = max(stat, abs(resid))
        else:
            stat = max(stat, resid)  # only overpricing is allowed at zero
    for lid in instance.link_ids:
        for k in instance.groups_on_link[lid]:
            total = sum(mu[(b, lid)] for b in instance.member_agents_on_link[(k, lid)])
            stat = max(stat, abs(lam[lid] - total))
    return primal_feas, dual_feas, comp, stat


def normal_matrix(ws, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """-Hessian of the welfare plus A^T diag(d) A, with d = multiplier / slack,
    for a solver workspace ``ws`` and z = [x; m]."""
    nx, nl = ws.nx, ws.nl
    d_b = d[nx + nl:]
    b_im = ws.b_m + nx
    N = np.zeros((ws.n, ws.n))
    N[np.arange(nx), np.arange(nx)] = d[:nx] - ws.d2value(x)
    np.add.at(N, (ws.b_ix, ws.b_ix), d_b * ws.b_al ** 2)
    np.add.at(N, (b_im, b_im), d_b)
    np.add.at(N, (ws.b_ix, b_im), -d_b * ws.b_al)
    np.add.at(N, (b_im, ws.b_ix), -d_b * ws.b_al)
    same_link = ws.m_link[:, None] == ws.m_link[None, :]
    N[nx:, nx:] += np.where(same_link, d[nx + ws.m_link][:, None], 0.0)
    return N


def dense_direction(N: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """N^-1 rhs, solved on N's symmetric diagonal equilibration."""
    scale = 1.0 / np.sqrt(np.diag(N))
    return scale * np.linalg.solve(N * scale[:, None] * scale[None, :], scale * rhs)
