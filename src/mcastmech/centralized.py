"""Centralized welfare-optimal rate allocation with dual certificates.

Solves, for a validated instance,

    maximize   sum_ki v_ki(x_ki)
    over       x_ki >= 0,  m_{k,l} for every group k crossing link l
    subject to sum_{k on l} m_{k,l} <= c_l          (capacity, one per link)
               alpha_{ki,l} * x_ki <= m_{k,l}       (bounding, one per member)

by a primal-dual interior-point method with Mehrotra's predictor-corrector
steps. The three inequality families (x >= 0, capacity, bounding) carry
slacks and multipliers as iterates next to z = [x; m], so the link duals
lambda_l and the member duals mu_{ki,l} are iterates themselves, not values
read off a barrier parameter. Each step factors one normal matrix, the
negative welfare Hessian plus A^T diag(multiplier / slack) A, and solves it
for a predictor and a corrector direction. The centring target is floored
at min(gap, 0.1 * max|dual residual|), so complementarity cannot outrun
stationarity on saturated valuations, where Newton steps in x are short.

Every iterate is measured after one closed-form finishing step: x is scaled
by the mechanism's own scale r = min_l c_l / sum_k max_i alpha * x, which
makes the tightest link bind exactly, and each m is refit under its link.
Without it an iterate leaves a binding link slack by about gap / lambda,
which on saturated instances (lambda near 1e-8) shows as allocation drift
when the mechanism replays x. The loop keeps the best iterate by KKT
residual and stops at RESIDUAL_FLOOR or once it stops improving; the solve
fails with SolverError only when that best iterate misses tol.

Stationarity ties the duals together: for every positive rate
v'(x) = sum_l mu * alpha, and on every link the per-group dual sums match
the link dual, lambda_l = sum_{members} mu. Both are part of the residual
report, as is the sharing diagnostic |S_l| (number of groups with a
positive member rate on each link).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import SolverError
from .model import AgentId, NetworkInstance, RATE_ATOL, require_valid

#: Default target for the max KKT residual across all blocks.
DEFAULT_TOL = 1e-9

#: The interior-point loop stops once the max KKT residual is at or below
#: this, whatever tol is, or after PATIENCE steps that lowered neither the
#: residual nor the complementarity gap, or after MAX_ITERS steps.
RESIDUAL_FLOOR = 1e-13
PATIENCE = 10
MAX_ITERS = 200

#: Fraction of the distance to the boundary that a step may cover.
STEP_TO_BOUNDARY = 0.99


@dataclass
class PrimalSolution:
    x: Dict[AgentId, float]
    m: Dict[Tuple[int, str], float]


@dataclass
class KKTReport:
    primal_feas: float
    dual_feas: float
    comp_slack: float
    stationarity: float
    a4_holds: bool
    s_sizes: Dict[str, int]

    @property
    def max_residual(self) -> float:
        return max(self.primal_feas, self.dual_feas, self.comp_slack, self.stationarity)

    def as_dict(self) -> Dict[str, object]:
        return {
            "primal_feas": self.primal_feas,
            "dual_feas": self.dual_feas,
            "comp_slack": self.comp_slack,
            "stationarity": self.stationarity,
            "max_residual": self.max_residual,
            "a4_holds": self.a4_holds,
            "s_sizes": dict(sorted(self.s_sizes.items())),
        }


@dataclass
class DualCertificate:
    lam: Dict[str, float]
    mu: Dict[Tuple[AgentId, str], float]
    residuals: KKTReport


@dataclass
class A4Report:
    s_sizes: Dict[str, int]
    holds: bool


class _Workspace:
    """Index bookkeeping for the stacked variable vector z = [x..., m...] and
    the stacked slack vector s = [x..., capacity slacks..., bounding slacks...]."""

    def __init__(self, inst: NetworkInstance):
        self.inst = inst
        self.agents = list(inst.agents)
        self.aidx = {ki: j for j, ki in enumerate(self.agents)}
        self.mpairs: List[Tuple[int, str]] = [
            (k, lid) for lid in inst.link_ids for k in inst.groups_on_link[lid]]
        self.midx = {p: j for j, p in enumerate(self.mpairs)}
        self.nx = len(self.agents)
        self.nm = len(self.mpairs)
        self.n = self.nx + self.nm
        # Bounding constraints, one per (agent, link on its route).
        self.bnd: List[Tuple[AgentId, str, int, int, float]] = []
        for ki in self.agents:
            for lid in inst.links_of[ki]:
                self.bnd.append((ki, lid, self.aidx[ki],
                                 self.midx[(ki.group, lid)], inst.alpha[(ki, lid)]))
        self.b_ix = np.array([b[2] for b in self.bnd], dtype=int)
        # global indices into z for the m component of each bounding constraint
        self.b_im = np.array([b[3] + self.nx for b in self.bnd], dtype=int)
        self.b_al = np.array([b[4] for b in self.bnd])
        self.link_midx = {lid: np.array([self.midx[(k, lid)]
                                         for k in inst.groups_on_link[lid]], dtype=int)
                          for lid in inst.link_ids}
        self.nl = len(inst.link_ids)
        lpos = {lid: j for j, lid in enumerate(inst.link_ids)}
        self.m_link = np.array([lpos[lid] for _, lid in self.mpairs], dtype=int)
        self.caps = np.array([inst.capacity[lid] for lid in inst.link_ids])
        self.offset = np.concatenate((np.zeros(self.nx), self.caps,
                                      np.zeros(len(self.bnd))))

    def dvalue(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.inst.valuation(ki).deriv(x[j])
                         for j, ki in enumerate(self.agents)])

    def d2value(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.inst.valuation(ki).second(x[j])
                         for j, ki in enumerate(self.agents)])

    def link_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-link sums of an m-indexed vector."""
        return np.bincount(self.m_link, v, self.nl)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A z, where the slacks are s = A z + offset."""
        x, m = z[:self.nx], z[self.nx:]
        return np.concatenate((x, -self.link_sums(m),
                               z[self.b_im] - self.b_al * x[self.b_ix]))

    def transpose(self, y: np.ndarray) -> np.ndarray:
        """A^T y for y = [nu (x >= 0), lambda (capacity), mu (bounding)]."""
        nx, nl = self.nx, self.nl
        mu = y[nx + nl:]
        g = np.concatenate((y[:nx], -y[nx:nx + nl][self.m_link]))
        np.add.at(g, self.b_im, mu)
        np.add.at(g, self.b_ix, -self.b_al * mu)
        return g


def _interior_start(ws: _Workspace, seed: Optional[int]) -> np.ndarray:
    inst = ws.inst
    rng = np.random.default_rng(seed) if seed is not None else None
    z = np.zeros(ws.n)
    for (k, lid), j in ws.midx.items():
        frac = 0.5 if rng is None else float(rng.uniform(0.35, 0.65))
        z[ws.nx + j] = inst.capacity[lid] * frac / len(inst.groups_on_link[lid])
    for ki, j in ws.aidx.items():
        lo = min(z[ws.nx + ws.midx[(ki.group, lid)]] / inst.alpha[(ki, lid)]
                 for lid in inst.links_of[ki])
        frac = 0.5 if rng is None else float(rng.uniform(0.3, 0.7))
        z[j] = lo * frac
    return z


def _normal_matrix(ws: _Workspace, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """-Hessian of the welfare plus A^T diag(d) A, with d = multiplier / slack."""
    nx, nl = ws.nx, ws.nl
    d_b = d[nx + nl:]
    N = np.zeros((ws.n, ws.n))
    N[np.arange(nx), np.arange(nx)] = d[:nx] - ws.d2value(x)
    np.add.at(N, (ws.b_ix, ws.b_ix), d_b * ws.b_al ** 2)
    np.add.at(N, (ws.b_im, ws.b_im), d_b)
    np.add.at(N, (ws.b_ix, ws.b_im), -d_b * ws.b_al)
    np.add.at(N, (ws.b_im, ws.b_ix), -d_b * ws.b_al)
    for j, lid in enumerate(ws.inst.link_ids):
        idx = ws.link_midx[lid] + nx
        N[np.ix_(idx, idx)] += d[nx + j]
    return N


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] keeping v + step * dv nonnegative."""
    neg = dv < 0.0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def _mehrotra_step(ws: _Workspace, z: np.ndarray, s: np.ndarray, y: np.ndarray):
    """One predictor-corrector step on the KKT system of
    min -welfare(z) s.t. A z + offset = s >= 0, with multipliers y >= 0."""
    x = z[:ws.nx]
    grad = np.zeros(ws.n)
    grad[:ws.nx] = -ws.dvalue(x)
    r_dual = grad - ws.transpose(y)
    r_primal = ws.apply(z) + ws.offset - s
    gap = float(s @ y) / len(s)
    N = _normal_matrix(ws, x, y / s)
    # Symmetric diagonal scaling: y / s spans many orders of magnitude near
    # the optimum, and the solve keeps more digits on the equilibrated matrix.
    scale = 1.0 / np.sqrt(np.diag(N))
    N *= scale[:, None] * scale[None, :]

    def direction(r_comp):
        rhs = ws.transpose((r_comp - y * r_primal) / s) - r_dual
        dz = scale * np.linalg.solve(N, scale * rhs)
        ds = ws.apply(dz) + r_primal
        return dz, ds, (r_comp - y * ds) / s

    dz, ds, dy = direction(-s * y)
    gap_aff = float((s + _max_step(s, ds) * ds) @ (y + _max_step(y, dy) * dy)) / len(s)
    target = max((gap_aff / gap) ** 3 * gap,
                 min(gap, 0.1 * float(np.max(np.abs(r_dual)))))
    dz, ds, dy = direction(target - s * y - ds * dy)
    step = STEP_TO_BOUNDARY * min(_max_step(s, ds), _max_step(y, dy))
    return z + step * dz, s + step * ds, y + step * dy


def _finish(ws: _Workspace, z: np.ndarray, y: np.ndarray):
    """Scale an iterate onto the mechanism's allocation and read off duals.

    x is scaled by r = min_l c_l / sum_k peak_{k,l}, which makes the
    tightest link binding exactly; each m keeps the scaled peak plus the
    largest share of its interior excess that still fits its link.
    """
    nx, nl = ws.nx, ws.nl
    x, m = z[:nx], z[nx:]
    peak = np.zeros(ws.nm)
    np.maximum.at(peak, ws.b_im - nx, ws.b_al * x[ws.b_ix])
    load = ws.link_sums(peak)
    r = float(np.min(ws.caps / load))
    excess = m - peak
    room = ws.link_sums(excess)
    t = np.clip(np.divide(ws.caps - r * load, room, out=np.ones(nl), where=room > 0.0),
                0.0, 1.0)
    x = r * x
    m = r * peak + t[ws.m_link] * excess
    primal = PrimalSolution(
        x={ki: float(x[j]) for ki, j in ws.aidx.items()},
        m={p: float(m[j]) for p, j in ws.midx.items()})
    lam = {lid: float(y[nx + j]) for j, lid in enumerate(ws.inst.link_ids)}
    mu = {(b[0], b[1]): float(y[nx + nl + j]) for j, b in enumerate(ws.bnd)}
    return primal, lam, mu


def check_a4(instance: NetworkInstance, primal: PrimalSolution) -> A4Report:
    """Count groups with a meaningfully positive member rate on each link."""
    sizes = {}
    for lid in instance.link_ids:
        thresh = RATE_ATOL * instance.capacity[lid]
        count = 0
        for k in instance.groups_on_link[lid]:
            if any(primal.x[b] > thresh for b in instance.member_agents_on_link[(k, lid)]):
                count += 1
        sizes[lid] = count
    return A4Report(sizes, all(c >= 2 for c in sizes.values()))


def kkt_residuals(instance: NetworkInstance, primal: PrimalSolution,
                  lam: Dict[str, float],
                  mu: Dict[Tuple[AgentId, str], float]) -> KKTReport:
    """Max-norm residual per optimality block, plus the sharing diagnostic."""
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
    a4 = check_a4(instance, primal)
    return KKTReport(primal_feas, dual_feas, comp, stat, a4.holds, a4.s_sizes)


def solve_cp(instance: NetworkInstance, tol: float = DEFAULT_TOL,
             init_seed: Optional[int] = None
             ) -> Tuple[PrimalSolution, DualCertificate]:
    """Primal-dual interior-point solve to the requested max KKT residual.

    init_seed jitters the strictly interior start (useful for probing that
    independent runs agree); the path itself is deterministic given the seed.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    require_valid(instance)
    ws = _Workspace(instance)
    z = _interior_start(ws, init_seed)
    x0 = z[:ws.nx]
    gap0 = max(1.0, float(ws.dvalue(x0) @ x0) / max(1, ws.n))
    s = ws.apply(z) + ws.offset
    y = gap0 / s
    best = None
    best_gap = math.inf
    stale = 0
    for _ in range(MAX_ITERS):
        primal, lam, mu = _finish(ws, z, y)
        report = kkt_residuals(instance, primal, lam, mu)
        improved = best is None or report.max_residual < best[3].max_residual
        if improved:
            best = (primal, lam, mu, report)
        # Early on the residual can sit at a starved agent's x >= 0 multiplier
        # for many steps while the gap falls steadily; that is progress too.
        gap = float(s @ y)
        if gap < best_gap:
            best_gap = gap
            improved = True
        stale = 0 if improved else stale + 1
        if report.max_residual <= RESIDUAL_FLOOR or stale >= PATIENCE:
            break
        try:
            z, s, y = _mehrotra_step(ws, z, s, y)
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(z).all() and np.isfinite(s).all() and np.isfinite(y).all()):
            break
    primal, lam, mu, report = best
    if report.max_residual > tol:
        raise SolverError(
            f"interior point stalled at max residual {report.max_residual:.3e} > tol {tol:.3e}")
    return primal, DualCertificate(lam, mu, report)


def argmax_ties(instance: NetworkInstance, primal: PrimalSolution,
                rtol: float = 1e-6) -> Dict[Tuple[int, str], List[int]]:
    """Members attaining the group's weighted peak on each link, within rtol.

    More than one member means the bounding duals on that (group, link) are
    not unique; downstream consumers get the tie set instead of a warning.
    """
    ties = {}
    for (k, lid), members in instance.members_on_link.items():
        vals = {i: instance.alpha[(AgentId(k, i), lid)] * primal.x[AgentId(k, i)]
                for i in members}
        peak = max(vals.values())
        ties[(k, lid)] = [i for i, v in vals.items()
                          if v >= peak - rtol * max(1.0, peak)]
    return ties


def solution_to_dict(instance: NetworkInstance, primal: PrimalSolution,
                     dual: DualCertificate) -> Dict[str, object]:
    return {
        "x": {ki.label: primal.x[ki] for ki in instance.agents},
        "m": {f"{k}|{lid}": primal.m[(k, lid)]
              for (k, lid) in sorted(primal.m)},
        "lambda": {lid: dual.lam[lid] for lid in instance.link_ids},
        "mu": {f"{ki.label}|{lid}": dual.mu[(ki, lid)]
               for (ki, lid) in sorted(dual.mu, key=lambda p: (p[0], p[1]))},
        "residuals": dual.residuals.as_dict(),
        "welfare": sum(instance.valuation(ki).value(primal.x[ki])
                       for ki in instance.agents),
        "peak_ties": {f"{k}|{lid}": v
                      for (k, lid), v in sorted(argmax_ties(instance, primal).items())},
    }


def solution_to_json(instance: NetworkInstance, primal: PrimalSolution,
                     dual: DualCertificate) -> str:
    return json.dumps(solution_to_dict(instance, primal, dual),
                      indent=2, sort_keys=True) + "\n"
