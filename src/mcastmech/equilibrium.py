"""Equilibrium construction, certification, and diagnostics.

The candidate profile is read off the welfare solution and its duals:
demands equal the optimal rates, own-constraint quotes equal the bounding
duals, successor quotes equal the successor's own quote (a singleton quotes
itself, the coordinate is inert there), and under SBB every scaling
estimate equals the realized scale. With at least two groups demanding on
every link the realized scale is 1, so the mechanism reproduces the
welfare-optimal rates exactly.

Certification computes each agent's best response. For a fixed own demand
the allocation is fixed and the best quotes and rho are closed forms, so
the best response is a one-dimensional maximum over the demand, whose
kinks are known in closed form: a log grid through them plus golden
section on the best local maxima finds it. The candidate is an epsilon
equilibrium when no agent's best response gains more than epsilon (Kakhbod
and Teneketzis, IEEE JSAC 30(11), 2012, build their multicast game form
on the same separation of the deviation).

The agents share a read-only profile during certification, so per-agent
best responses are independent; this module runs them sequentially and
leaves process-level parallelism to sweep drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .centralized import DualCertificate, PrimalSolution, check_a4
from .errors import DegenerateInstanceError, EquilibriumError, SharingAssumptionError
from .mechanism import (DeviationEvaluator, MechanismParams, Message, Profile,
                        VARIANT_SBB, allocate, allocation_slopes, evaluate,
                        group_prices, _price_factor, utilities)
from .model import AgentId, NetworkInstance, RATE_ATOL, constraint_violation


@dataclass
class CandidateNE:
    profile: Profile
    params: MechanismParams
    source: str = "kkt"


@dataclass
class BestResponseResult:
    message: Message
    gain: float
    evals: int
    base_utility: float
    best_utility: float


@dataclass
class CertificationReport:
    epsilon: float
    budget: int
    restarts: int
    seed: int
    gains: Dict[AgentId, float]
    evals: Dict[AgentId, int]
    deviations: Dict[AgentId, Message]
    certified: bool

    @property
    def max_gain(self) -> float:
        return max(self.gains.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "epsilon": self.epsilon,
            "budget_per_agent": self.budget,
            "restarts": self.restarts,
            "seed": self.seed,
            "gains": {ki.label: self.gains[ki] for ki in sorted(self.gains)},
            "evals": {ki.label: self.evals[ki] for ki in sorted(self.evals)},
            "max_gain": self.max_gain,
            "certified": self.certified,
        }


@dataclass
class LemmaReport:
    equal_prices: float
    dual_feas: float
    comp_slack: float
    stationarity: float
    ir: float
    wbb: float
    sbb: float
    rho_consensus: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "equal_prices": self.equal_prices,
            "dual_feas": self.dual_feas,
            "comp_slack": self.comp_slack,
            "stationarity": self.stationarity,
            "ir": self.ir,
            "wbb": self.wbb,
            "sbb": self.sbb,
            "rho_consensus": self.rho_consensus,
        }


@dataclass
class AgentCurvature:
    agent: AgentId
    passed: bool
    max_eig: float
    price_diag: Dict[str, float]
    kinked: bool
    locked: List[str]
    n_coords: int


@dataclass
class CurvatureReport:
    agents: Dict[AgentId, AgentCurvature]

    @property
    def all_pass(self) -> bool:
        return all(a.passed for a in self.agents.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            ki.label: {
                "passed": a.passed,
                "max_eig": a.max_eig,
                "price_diag": dict(sorted(a.price_diag.items())),
                "kinked": a.kinked,
                "locked": sorted(a.locked),
                "n_coords": a.n_coords,
            }
            for ki, a in sorted(self.agents.items())
        }


@dataclass
class DynamicsResult:
    rows: List[Dict[str, object]]
    fixed_point: bool
    rounds_run: int
    final_profile: Profile


# ---------------------------------------------------------------------------
# Candidate construction

def default_epsilon(instance: NetworkInstance, primal: PrimalSolution) -> float:
    scale = max(instance.valuation(ki).value(primal.x[ki]) for ki in instance.agents)
    return 1e-6 * max(scale, 1e-12)


def construct_ne(instance: NetworkInstance, primal: PrimalSolution,
                 dual: DualCertificate, params: MechanismParams,
                 dual_tol: float = 1e-6, r_tol: float = 1e-6) -> CandidateNE:
    """Messages that replay the welfare solution through the mechanism."""
    if dual.residuals.max_residual > dual_tol:
        raise EquilibriumError(
            f"duals too loose for construction: {dual.residuals.max_residual:.3e}")
    a4 = check_a4(instance, primal)
    if not a4.holds:
        bad = sorted(l for l, c in a4.s_sizes.items() if c < 2)
        raise SharingAssumptionError(
            f"single demanding group at the optimum on: {', '.join(bad)}")
    sbb = params.variant == VARIANT_SBB
    y = {ki: primal.x[ki] for ki in instance.agents}
    alloc = allocate(instance, y)
    if abs(alloc.r - 1.0) > r_tol:
        raise EquilibriumError(f"replayed scale {alloc.r} is not 1")
    profile: Profile = {}
    for ki in instance.agents:
        q = {}
        for lid in instance.links_of[ki]:
            succ = instance.succ_on_link[(ki, lid)]
            q[lid] = (dual.mu[(ki, lid)], dual.mu[(succ, lid)])
        profile[ki] = Message(y[ki], q, alloc.r if sbb else None)
    err = max(abs(alloc.x[ki] - primal.x[ki]) for ki in instance.agents)
    if err > r_tol * max(1.0, max(abs(v) for v in primal.x.values())):
        raise EquilibriumError(f"replayed rates drift from the optimum by {err:.3e}")
    return CandidateNE(profile, params)


# ---------------------------------------------------------------------------
# Best response

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 40  # log-spaced demands across the scales of g, 1e3 beyond each end
_TAIL = (1e3, 1e6, 1e9, 1e12)  # sparse demands beyond both ends, where g is monotone
_REFINE = 3  # best local maxima of the samples refined by golden section
_WIDTH_TOL = 1e-8  # relative bracket width at which golden section stops


def _demand_grid(y0: float, kinks: List[float], knees: List[float]) -> List[float]:
    """Sorted demands at which g is sampled: 0, the incumbent y0, the
    kinks, a log grid across the scales (knees, kinks, y0) and sparse
    tails out to 1e15 times past them (x is then saturated to a share
    1e-15 on every route link). Points closer than rounding noise in g
    would fake local maxima, so each cluster keeps one (y0 if in it)."""
    scales = [*knees, *kinks] + ([y0] if y0 > 0.0 else [])
    lo = max(min(scales) / 1e3, 1e-300)
    hi = max(min(max(scales) * 1e3, 1e300), lo)
    step = (hi / lo) ** (1.0 / (_GRID_POINTS - 1))
    points = {0.0, y0, *kinks, *(lo * step ** j for j in range(_GRID_POINTS))}
    points.update(p for t in _TAIL for p in (lo / t, hi * t))
    grid: List[float] = []
    for y in sorted(p for p in points if p <= 1e300):
        if grid and y - grid[-1] <= 1e-9 * y:
            if y == y0:
                grid[-1] = y
            continue
        grid.append(y)
    return grid


def exact_best_response(instance: NetworkInstance, profile: Profile, ki: AgentId,
                        params: MechanismParams, budget: int = 1000
                        ) -> BestResponseResult:
    """Agent ki's best response to the rest of the profile.

    For a fixed own demand y the best quotes and rho are closed forms
    (DeviationEvaluator.best_message), so the best response maximizes
    g(y), the utility of the best message at demand y. g is smooth except
    at y = 0 and at the kinks of the allocation, all known in closed form
    (DeviationEvaluator.demand_kinks). g is sampled at those points, at
    the incumbent demand and on a log grid (_demand_grid); the best local
    maxima of the samples are refined by golden section. Every value is a
    DeviationEvaluator.utility call, and `budget` caps their number. The
    incumbent message is one of the candidates, so the gain is never
    negative."""
    if budget <= 0:
        raise ValueError(f"evaluation budget must be positive, got {budget}")
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

    grid = _demand_grid(current.y, *ev.demand_kinks())[:max(0, budget - ev.evals)]
    vals = [g(y) for y in grid]
    peaks = [j for j in range(1, len(grid)) if vals[j] >= vals[j - 1]
             and (j + 1 == len(grid) or vals[j] >= vals[j + 1])]
    for j in sorted(peaks, key=lambda j: -vals[j])[:_REFINE]:
        a, b = grid[j - 1], grid[min(j + 1, len(grid) - 1)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        if ev.evals + 2 > budget:
            break
        fc, fd = g(c), g(d)
        while b - a > _WIDTH_TOL * b and ev.evals < budget:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = g(d)
    best_val, best_msg = best
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val)


def best_response(instance: NetworkInstance, profile: Profile, ki: AgentId,
                  params: MechanismParams, budget: int = 1000,
                  restarts: int = 8, seed: int = 0) -> BestResponseResult:
    """exact_best_response under its earlier signature: `restarts` and
    `seed` are accepted and no longer steer anything."""
    return exact_best_response(instance, profile, ki, params, budget)


def certify_ne(instance: NetworkInstance, candidate: CandidateNE, epsilon: float,
               budget: int = 1000, restarts: int = 8, seed: int = 0
               ) -> CertificationReport:
    """Epsilon-equilibrium check: no agent's best response may gain more
    than epsilon over its candidate message.

    Each gain is exact_best_response's, so the verdict rests on a maximum
    of the deviation gain, not on a search that found nothing. `budget`
    caps the utility evaluations per agent; `restarts` and `seed` are
    recorded in the report and no longer steer anything."""
    gains: Dict[AgentId, float] = {}
    evals: Dict[AgentId, int] = {}
    deviations: Dict[AgentId, Message] = {}
    for ki in instance.agents:
        br = exact_best_response(instance, candidate.profile, ki, candidate.params,
                                 budget)
        gains[ki] = br.gain
        evals[ki] = br.evals
        deviations[ki] = br.message
    certified = max(gains.values()) <= epsilon
    return CertificationReport(epsilon, budget, restarts, seed, gains, evals,
                               deviations, certified)


# ---------------------------------------------------------------------------
# Best-response dynamics

def br_dynamics(instance: NetworkInstance, initial: Profile,
                params: MechanismParams, rounds: int = 50,
                schedule: str = "gauss-seidel", epsilon: float = 1e-8,
                budget: int = 300, restarts: int = 4, seed: int = 0
                ) -> DynamicsResult:
    """Iterated best response; convergence is observed, never presumed.

    Each update is exact_best_response with `budget` evaluations; `restarts`
    and `seed` are accepted and no longer steer anything. One row per
    (round, agent) records demand, rate, tax, and the round's best-response
    gain; the feasible flag certifies the shared constraints after the
    round's updates (the allocation map keeps it true by construction)."""
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    if schedule not in ("gauss-seidel", "jacobi"):
        raise ValueError(f"unknown schedule {schedule!r}")
    profile = {ki: initial[ki].copy() for ki in instance.agents}
    rows: List[Dict[str, object]] = []
    fixed_point = False
    rounds_run = 0
    for rnd in range(1, rounds + 1):
        rounds_run = rnd
        round_gains: Dict[AgentId, float] = {}
        if schedule == "jacobi":
            responses = {}
            for ki in instance.agents:
                br = exact_best_response(instance, profile, ki, params, budget)
                round_gains[ki] = br.gain
                responses[ki] = br.message if br.gain > 0.0 else profile[ki]
            profile = {ki: responses[ki].copy() for ki in instance.agents}
        else:
            for ki in instance.agents:
                br = exact_best_response(instance, profile, ki, params, budget)
                round_gains[ki] = br.gain
                if br.gain > 0.0:
                    profile[ki] = br.message.copy()
        out = evaluate(instance, profile, params, check=False)
        feasible = constraint_violation(instance, out.x, out.m) <= 1e-12
        for ki in instance.agents:
            rows.append({
                "round": rnd,
                "agent": ki.label,
                "y": profile[ki].y,
                "x": out.x[ki],
                "tax": out.taxes[ki].total,
                "gain": round_gains[ki],
                "feasible": feasible,
            })
        if max(round_gains.values()) <= epsilon:
            fixed_point = True
            break
    return DynamicsResult(rows, fixed_point, rounds_run, profile)


# ---------------------------------------------------------------------------
# Lemma suite

def lemma_suite(instance: NetworkInstance, candidate: CandidateNE) -> LemmaReport:
    """Numeric residual of every equilibrium property at the given profile."""
    params = candidate.params
    profile = candidate.profile
    sbb = params.variant == VARIANT_SBB
    out = evaluate(instance, profile, params)
    u = utilities(instance, profile, params, check=False)

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
        slack = instance.capacity[lid] - sum(out.m[(k, lid)]
                                             for k in instance.groups_on_link[lid])
        for k in instance.groups_on_link[lid]:
            comp = max(comp, abs(out.w[(k, lid)] * slack))
    for ki in instance.agents:
        for lid in instance.links_of[ki]:
            gap = instance.alpha[(ki, lid)] * out.x[ki] - out.m[(ki.group, lid)]
            comp = max(comp, abs(profile[ki].q[lid][0] * gap))

    stat = 0.0
    for ki in instance.agents:
        price = sum(instance.alpha[(ki, lid)] * profile[ki].q[lid][0]
                    for lid in instance.links_of[ki])
        resid = instance.valuation(ki).deriv(out.x[ki]) - price
        thresh = RATE_ATOL * max(instance.capacity[lid]
                                 for lid in instance.links_of[ki])
        stat = max(stat, abs(resid) if out.x[ki] > thresh else max(0.0, resid))

    ir = max(0.0, max(instance.valuation(ki).value(0.0) - u[ki]
                      for ki in instance.agents))
    wbb_gap = max(0.0, -out.total_tax)
    sbb_gap = abs(out.total_tax) if sbb else 0.0
    rho_gap = 0.0
    if sbb:
        rho_gap = max(abs(profile[ki].rho - out.r) for ki in instance.agents)
    return LemmaReport(equal_prices, dual_feas, comp, stat, ir, wbb_gap,
                       sbb_gap, rho_gap)


# ---------------------------------------------------------------------------
# Local curvature (finite-difference Hessians of own utility)

_COORD_Y = "y"
_COORD_Q1 = "q1"
_COORD_Q2 = "q2"
_COORD_RHO = "rho"


def _coords_for(instance: NetworkInstance, ki: AgentId, variant: str):
    coords = [(_COORD_Y, None)]
    for lid in instance.links_of[ki]:
        coords.append((_COORD_Q1, lid))
    for lid in instance.links_of[ki]:
        if len(instance.members_on_link[(ki.group, lid)]) >= 2:
            coords.append((_COORD_Q2, lid))
    if variant == VARIANT_SBB:
        coords.append((_COORD_RHO, None))
    return coords


def _get(msg: Message, coord) -> float:
    kind, lid = coord
    if kind == _COORD_Y:
        return msg.y
    if kind == _COORD_RHO:
        return msg.rho
    q1, q2 = msg.q[lid]
    return q1 if kind == _COORD_Q1 else q2


def _set(msg: Message, coord, value: float) -> None:
    kind, lid = coord
    if kind == _COORD_Y:
        msg.y = value
    elif kind == _COORD_RHO:
        msg.rho = value
    else:
        q1, q2 = msg.q[lid]
        msg.q[lid] = (value, q2) if kind == _COORD_Q1 else (q1, value)


def _displaced(msg: Message, deltas) -> Message:
    out = msg.copy()
    for coord, d in deltas:
        _set(out, coord, _get(out, coord) + d)
    return out


def _agent_hessian(ev: DeviationEvaluator, msg0: Message, coords, h_of,
                   dirs) -> np.ndarray:
    """FD Hessian with per-coordinate direction: 0 central, +-1 one-sided."""
    f0 = ev.utility(msg0)
    n = len(coords)
    H = np.zeros((n, n))
    singles: Dict[Tuple[int, int], float] = {}

    def single(i: int, steps: int) -> float:
        key = (i, steps)
        if key not in singles:
            singles[key] = ev.utility(_displaced(msg0, [(coords[i], steps * h_of[i])]))
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
                v = (ev.utility(_displaced(msg0, [(coords[i], hi), (coords[j], hj)]))
                     - ev.utility(_displaced(msg0, [(coords[i], hi), (coords[j], -hj)]))
                     - ev.utility(_displaced(msg0, [(coords[i], -hi), (coords[j], hj)]))
                     + ev.utility(_displaced(msg0, [(coords[i], -hi), (coords[j], -hj)]))
                     ) / (4.0 * hi * hj)
            elif di != 0 and dj == 0:
                v = (ev.utility(_displaced(msg0, [(coords[i], di * hi), (coords[j], hj)]))
                     - ev.utility(_displaced(msg0, [(coords[i], di * hi), (coords[j], -hj)]))
                     - single(j, 1) + single(j, -1)) / (2.0 * di * hi * hj)
            elif di == 0 and dj != 0:
                v = (ev.utility(_displaced(msg0, [(coords[i], hi), (coords[j], dj * hj)]))
                     - ev.utility(_displaced(msg0, [(coords[i], -hi), (coords[j], dj * hj)]))
                     - single(i, 1) + single(i, -1)) / (2.0 * dj * hj * hi)
            else:
                v = (ev.utility(_displaced(msg0, [(coords[i], di * hi), (coords[j], dj * hj)]))
                     - single(i, di) - single(j, dj) + f0) / (di * hi * dj * hj)
            H[i, j] = H[j, i] = v
    return H


def curvature_check(instance: NetworkInstance, candidate: CandidateNE,
                    h_scale: float = 1e-4) -> CurvatureReport:
    """Negative definiteness of every agent's own-utility Hessian.

    The demand coordinate is only piecewise smooth: when its one-sided
    allocation slopes disagree, both one-sided Hessians are required to be
    negative definite. Coordinates pinned at zero whose one-sided slope is
    strictly negative are boundary maxima in that direction and are
    excluded from the matrix.

    The verdict is measured at finite-difference resolution: eigenvalues
    are compared against a noise floor of 1e-7 * max(1, |utility|), the
    roundoff scale of a second difference with the default step. A
    saturated agent (marginal value below 1e-10, so zero prices and a
    utility exactly flat in its demand at machine precision) yields a zero
    eigenvalue that no coupling-weight shrink can move; that direction is
    flat within measurement, not indefinite, and passes."""
    params = candidate.params
    profile = candidate.profile
    agents_out: Dict[AgentId, AgentCurvature] = {}
    y_full = {b: profile[b].y for b in instance.agents}
    for ki in instance.agents:
        ev = DeviationEvaluator(instance, profile, params, ki)
        msg0 = profile[ki].copy()
        f0 = ev.utility(msg0)
        coords_all = _coords_for(instance, ki, params.variant)
        h_all = [h_scale * max(1.0, abs(_get(msg0, c))) for c in coords_all]

        kinked = False
        if msg0.y > 0.0:
            sp = allocation_slopes(instance, y_full, ki, +1)
            sm = allocation_slopes(instance, y_full, ki, -1)
            if sp.jumped or sm.jumped or \
                    abs(sp.dx - sm.dx) > 1e-9 * (1.0 + abs(sp.dx)):
                kinked = True

        locked: List[str] = []
        coords: List = []
        h_of: List[float] = []
        boundary: List[bool] = []
        for c, h in zip(coords_all, h_all):
            th = _get(msg0, c)
            at_zero = th < h
            if at_zero:
                f1 = ev.utility(_displaced(msg0, [(c, h)]))
                f2 = ev.utility(_displaced(msg0, [(c, 2.0 * h)]))
                slope = (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * h)
                if slope < -1e-6 * (1.0 + abs(f0)):
                    locked.append(f"{c[0]}|{c[1]}" if c[1] else c[0])
                    continue
            coords.append(c)
            h_of.append(h)
            boundary.append(at_zero)

        def dirs_for(y_dir: int) -> List[int]:
            out = []
            for c, at_zero in zip(coords, boundary):
                if c[0] == _COORD_Y:
                    out.append(+1 if (at_zero or _get(msg0, c) < 3.0 * h_scale)
                               else y_dir)
                else:
                    out.append(+1 if at_zero else 0)
            return out

        sides = [+1, -1] if (kinked and msg0.y > 3.0 * h_scale) else [0]
        max_eig = -math.inf
        passed = True
        price_diag: Dict[str, float] = {}
        if coords:
            for side in sides:
                dirs = dirs_for(side if side != 0 else 0)
                if side == 0:
                    dirs = [d if coords[j][0] != _COORD_Y else
                            (+1 if boundary[j] else 0)
                            for j, d in enumerate(dirs)]
                H = _agent_hessian(ev, msg0, coords, h_of, dirs)
                eigs = np.linalg.eigvalsh((H + H.T) / 2.0)
                max_eig = max(max_eig, float(eigs[-1]))
                for j, c in enumerate(coords):
                    if c[0] in (_COORD_Q1, _COORD_Q2):
                        price_diag[f"{c[0]}|{c[1]}"] = float(H[j, j])
            passed = max_eig < 1e-7 * max(1.0, abs(f0))
        else:
            max_eig = 0.0
            passed = True  # every direction is a strict boundary descent
        agents_out[ki] = AgentCurvature(ki, passed, max_eig, price_diag,
                                        kinked, locked, len(coords))
    return CurvatureReport(agents_out)


def tune_params(instance: NetworkInstance, primal: PrimalSolution,
                dual: DualCertificate, params: MechanismParams,
                floor: float = 1e-8
                ) -> Tuple[MechanismParams, int, CurvatureReport]:
    """Halve the coupling weights until local curvature passes everywhere."""
    shrinks = 0
    while True:
        candidate = construct_ne(instance, primal, dual, params)
        report = curvature_check(instance, candidate)
        if report.all_pass:
            return params, shrinks, report
        if params.eta / 2.0 < floor:
            raise DegenerateInstanceError(
                f"curvature still indefinite at the coupling floor {floor}")
        params = params.halved()
        shrinks += 1


# ---------------------------------------------------------------------------
# Analytic demand slope of own utility (cross-checked by finite differences)

def utility_y_slope(instance: NetworkInstance, profile: Profile,
                    params: MechanismParams, ki: AgentId, side: int
                    ) -> Tuple[float, bool]:
    """One-sided d(own utility)/d(own demand). Returns (slope, jumped).

    jumped means the scale itself is discontinuous on that side (a demand
    branch boundary), where no one-sided derivative exists."""
    y = {b: profile[b].y for b in instance.agents}
    slopes = allocation_slopes(instance, y, ki, side)
    if slopes.jumped:
        return math.nan, True
    w, w_bar = group_prices(instance, profile)
    k = ki.group
    x_ki = slopes.r * y[ki]
    total = instance.valuation(ki).deriv(x_ki) * slopes.dx
    for lid in instance.links_of[ki]:
        a = instance.alpha[(ki, lid)]
        pf = _price_factor(instance, profile, w_bar, ki, lid)
        q1_own = profile[ki].q[lid][0]
        wk = w[(k, lid)]
        wb = w_bar[(k, lid)]
        total -= (a * pf * slopes.dx
                  + params.eta * pf * (q1_own - pf) * (slopes.dm[(k, lid)] - a * slopes.dx)
                  - params.xi * wb * (wk - wb) * slopes.dm_sum[lid])
    if params.variant == VARIANT_SBB:
        total += 2.0 * params.zeta * (profile[ki].rho - slopes.r) * slopes.dr
    return total, False
