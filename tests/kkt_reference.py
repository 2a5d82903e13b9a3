"""Test-only references for the solver.

``reference_residuals`` is the per-entry loop form of the KKT residual
blocks, kept as the independent reference for ``kkt_residuals``. It reads
the instance's dicts and tuples one entry at a time and shares no array
code with the library. Its maxima use Python's ``max``, which skips a NaN,
so it is a reference for finite inputs only.

``eager_solve`` is ``solve_cp``'s interior-point loop in the form that
finishes and measures every iterate; the library's loop finishes no
iterate that its step's residuals show cannot stop it, measures none that
its finished complementarity block shows cannot, and must return what
this one returns.

``normal_matrix`` and ``dense_direction`` are the dense form of one
interior-point direction: the full (n_x + n_m) square normal matrix and
its diagonally equilibrated solve, which the library's step replaces by
eliminating the m-block.

``reference_a4``, ``reference_ties``, ``reference_quotes`` and
``reference_lemmas`` are the dict-walk forms of ``check_a4``,
``argmax_ties``, ``construct_ne``'s quotes and ``lemma_suite``: they look
every entry up by its (agent, link) or (group, link) key, where the
library makes single passes over the routes and the mechanism's
instance tables.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from mcastmech import (AgentId, CandidateNE, DualCertificate, LemmaReport, NetworkInstance,
                       PrimalSolution, centralized, evaluate)
from mcastmech.errors import SolverError
from mcastmech.mechanism import VARIANT_SBB
from mcastmech.model import RATE_ATOL, seq_sum

from evaluate_reference import member_agents_on_link, neighbours


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
    slots = member_agents_on_link(instance)
    for lid in instance.link_ids:
        for k in instance.groups_on_link[lid]:
            total = sum(mu[(b, lid)] for b in slots[(k, lid)])
            stat = max(stat, abs(lam[lid] - total))
    return primal_feas, dual_feas, comp, stat


def eager_solve(instance: NetworkInstance, tol: float = centralized.DEFAULT_TOL,
                init_seed: Optional[int] = None):
    """(blocks, x, m, y) of the iterate solve_cp returns, in workspace
    order, from a loop that finishes and measures every iterate and keeps
    the first with the least residual; it stops at RESIDUAL_FLOOR, after
    PATIENCE steps that did not bring s.y below (1 - PROGRESS) times its
    least value so far, or after MAX_ITERS steps, and raises solve_cp's
    SolverError above tol. It reads the loop constants and the step terms,
    step, finish and residual functions from the library at call time, so a
    test may patch them for both loops."""
    ws = centralized._Workspace(instance)
    nx, nl = ws.nx, ws.nl
    z = centralized._interior_start(ws, init_seed)
    x0 = z[:nx]
    gap0 = max(1.0, float(ws.dvalue(x0) @ x0) / (ws.nx + ws.nm))
    s = ws.apply(z) + ws.offset
    y = gap0 / s
    best = None
    best_gap = math.inf
    stale = 0
    for _ in range(centralized.MAX_ITERS):
        x, m = centralized._finish(ws, z)
        blocks = centralized._residual(ws, x, m, y[nx:nx + nl], y[nx + nl:])
        res = max(blocks)
        if best is None or res < best[0]:
            best = (res, blocks, x, m, y)
        gap = float(s @ y)
        if gap < (1.0 - centralized.PROGRESS) * best_gap:
            best_gap, stale = gap, 0
        else:
            stale += 1
        if res <= centralized.RESIDUAL_FLOOR or stale >= centralized.PATIENCE:
            break
        try:
            z, s, y = centralized._mehrotra_step(ws, z, s, y,
                                                 centralized._step_terms(ws, z, y))
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(z).all() and np.isfinite(s).all() and np.isfinite(y).all()):
            break
    res, blocks, x, m, y = best
    if res > tol:
        raise SolverError(
            f"interior point stalled at max residual {res:.3e} > tol {tol:.3e}")
    return blocks, x, m, y


def normal_matrix(ws, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """-Hessian of the welfare plus A^T diag(d) A, with d = multiplier / slack,
    for a solver workspace ``ws`` and z = [x; m]."""
    nx, nl = ws.nx, ws.nl
    d_b = d[nx + nl:]
    b_im = ws.b_m + nx
    N = np.zeros((nx + ws.nm, nx + ws.nm))
    second = [v.second(xj) for v, xj in zip(ws.vals, x.tolist())]
    N[np.arange(nx), np.arange(nx)] = d[:nx] - np.array(second)
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


def reference_a4(instance: NetworkInstance, primal: PrimalSolution
                 ) -> Tuple[Dict[str, int], bool]:
    """(s_sizes, holds) of check_a4, link by link and group by group; a
    member's rate counts when above RATE_ATOL times the largest capacity on
    its route."""
    def positive(b):
        return primal.x[b] > RATE_ATOL * max(instance.capacity[l] for l in instance.links_of[b])

    sizes, slots = {}, member_agents_on_link(instance)
    for lid in instance.link_ids:
        count = 0
        for k in instance.groups_on_link[lid]:
            if any(positive(b) for b in slots[(k, lid)]):
                count += 1
        sizes[lid] = count
    return sizes, all(c >= 2 for c in sizes.values())


def reference_ties(instance: NetworkInstance, primal: PrimalSolution
                   ) -> Dict[Tuple[int, str], List[int]]:
    """argmax_ties from the weights and rates looked up per member."""
    ties = {}
    for (k, lid), members in instance.members_on_link.items():
        vals = {i: instance.alpha[(AgentId(k, i), lid)] * primal.x[AgentId(k, i)]
                for i in members}
        peak = max(vals.values())
        ties[(k, lid)] = [i for i, v in vals.items()
                          if v >= peak - 1e-6 * max(1.0, peak)]
    return ties


def reference_quotes(instance: NetworkInstance, dual: DualCertificate
                     ) -> Dict[AgentId, Dict[str, Tuple[float, float]]]:
    """construct_ne's quotes: each agent's own bounding dual and its group
    successor's on every route link."""
    succ, _ = neighbours(instance)
    return {ki: {lid: (dual.mu[(ki, lid)], dual.mu[(succ[(ki, lid)], lid)])
                 for lid in instance.links_of[ki]}
            for ki in instance.agents}


def reference_lemmas(instance: NetworkInstance, candidate: CandidateNE) -> LemmaReport:
    """lemma_suite's blocks, each read from the outcome's and the profile's dicts."""
    profile = candidate.profile
    sbb = candidate.params.variant == VARIANT_SBB
    out = evaluate(instance, profile, candidate.params)
    equal_prices = max(abs(out.w[p] - out.w_bar[p]) for p in out.w)
    dual_feas = 0.0
    for ki in instance.agents:
        msg = profile[ki]
        for pair in msg.q.values():
            dual_feas = max(dual_feas, -min(pair))
        if sbb:
            dual_feas = max(dual_feas, -msg.rho)
    comp = 0.0
    for lid in instance.link_ids:
        slack = instance.capacity[lid] - seq_sum(out.m[(k, lid)]
                                                  for k in instance.groups_on_link[lid])
        for k in instance.groups_on_link[lid]:
            comp = max(comp, abs(out.w[(k, lid)] * slack))
    for ki in instance.agents:
        for lid in instance.links_of[ki]:
            gap = instance.alpha[(ki, lid)] * out.x[ki] - out.m[(ki.group, lid)]
            comp = max(comp, abs(profile[ki].q[lid][0] * gap))
    stat = 0.0
    for ki in instance.agents:
        price = seq_sum(instance.alpha[(ki, lid)] * profile[ki].q[lid][0]
                        for lid in instance.links_of[ki])
        resid = instance.valuation(ki).deriv(out.x[ki]) - price
        thresh = RATE_ATOL * max(instance.capacity[lid] for lid in instance.links_of[ki])
        stat = max(stat, abs(resid) if out.x[ki] > thresh else max(0.0, resid))
    ir = 0.0
    for ki in instance.agents:
        val = instance.valuation(ki)
        ir = max(ir, val.value(0.0) - (val.value(out.x[ki]) - out.taxes[ki].total))
    rho_gap = max(abs(profile[ki].rho - out.r) for ki in instance.agents) if sbb else 0.0
    return LemmaReport(equal_prices, dual_feas, comp, stat, ir, max(0.0, -out.total_tax),
                       abs(out.total_tax) if sbb else 0.0, rho_gap)
