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
section on the best local maxima, and on each side of a kink where the
utility rises away from it, finds it. The candidate is an epsilon
equilibrium when no agent's best response gains more than epsilon (Kakhbod
and Teneketzis, IEEE JSAC 30(11), 2012, build their multicast game form
on the same separation of the deviation).

The agents share a read-only profile during certification, so per-agent
best responses are independent; this module runs them sequentially and
leaves process-level parallelism to sweep drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .centralized import DualCertificate, PrimalSolution, check_a4
from .errors import DegenerateInstanceError, EquilibriumError, SharingAssumptionError
from .mechanism import (COORD_Q1, COORD_Q2, DeviationEvaluator, KINK_TOL,
                        MechanismParams, Message, Profile, VARIANT_SBB, _seq_sum,
                        allocate, evaluate)
from .model import AgentId, NetworkInstance, RATE_ATOL, constraint_violation


@dataclass
class CandidateNE:
    profile: Profile
    params: MechanismParams


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
                 dual: DualCertificate, params: MechanismParams) -> CandidateNE:
    """Messages that replay the welfare solution through the mechanism.

    Refuses duals whose max KKT residual exceeds 1e-6, and a replay whose
    scale or rates drift from 1 and the optimum by more than a relative 1e-6."""
    if dual.residuals.max_residual > 1e-6:
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
    if abs(alloc.r - 1.0) > 1e-6:
        raise EquilibriumError(f"replayed scale {alloc.r} is not 1")
    profile: Profile = {}
    for ki in instance.agents:
        q = {}
        for lid in instance.links_of[ki]:
            succ = instance.succ_on_link[(ki, lid)]
            q[lid] = (dual.mu[(ki, lid)], dual.mu[(succ, lid)])
        profile[ki] = Message(y[ki], q, alloc.r if sbb else None)
    err = max(abs(alloc.x[ki] - primal.x[ki]) for ki in instance.agents)
    if err > 1e-6 * max(1.0, max(abs(v) for v in primal.x.values())):
        raise EquilibriumError(f"replayed rates drift from the optimum by {err:.3e}")
    return CandidateNE(profile, params)


# ---------------------------------------------------------------------------
# Best response

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 40  # log-spaced demands across the scales of g, 1e3 beyond each end
_TAIL = (1e3, 1e6, 1e9, 1e12)  # sparse demands beyond both ends, where g is monotone
_REFINE = 3  # best candidate brackets refined by golden section
_WIDTH_TOL = 1e-8  # relative bracket width at which golden section stops
DEMAND_CAP = 1e300  # largest demand sampled; a best response there is cut off


def _demand_grid(y0: float, kinks: List[float], knees: List[float]
                 ) -> Tuple[List[float], List[bool]]:
    """Sorted demands at which g is sampled: 0, the incumbent y0, the
    kinks, a log grid across the scales (knees, kinks, y0) and sparse
    tails out to 1e15 times past them (x is then saturated to a share
    1e-15 on every route link). Points closer than rounding noise in g
    would fake local maxima, so each cluster keeps one (y0 if in it).
    Also returns, per point, whether its cluster holds a kink."""
    scales = [*knees, *kinks] + ([y0] if y0 > 0.0 else [])
    lo = max(min(scales) / 1e3, 1e-300)
    hi = max(min(max(scales) * 1e3, DEMAND_CAP), lo)
    step = (hi / lo) ** (1.0 / (_GRID_POINTS - 1))
    points = {0.0, y0, *kinks, *(lo * step ** j for j in range(_GRID_POINTS))}
    points.update(p for t in _TAIL for p in (lo / t, hi * t))
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


def exact_best_response(instance: NetworkInstance, profile: Profile, ki: AgentId,
                        params: MechanismParams, budget: int = 1000
                        ) -> BestResponseResult:
    """Agent ki's best response to the rest of the profile.

    For a fixed own demand y the best quotes and rho are closed forms
    (DeviationEvaluator.best_message), so the best response maximizes
    g(y), the utility of the best message at demand y. g is smooth except
    at y = 0 and at the kinks of the allocation (demand_kinks); it is
    sampled there, at the incumbent demand and on a log grid. Golden
    section, in log y off 0 where samples can lie decades apart, refines
    the best candidates by sample value: each sampled local maximum off a
    kink, between its neighbours, and each side of a kink whose neighbour
    there is no higher and where the exact one-sided slope of g
    (local_model) rises away from it, up to that neighbour. No bracket
    holds a kink. `budget` caps the DeviationEvaluator.utility calls. The
    incumbent is a candidate, so the gain is never negative."""
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

    grid, kinked = _demand_grid(current.y, *ev.demand_kinks())
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
        if refined == _REFINE or ev.evals + 2 > budget:
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
        tc, td = tb - _GOLDEN * (tb - ta), ta + _GOLDEN * (tb - ta)
        fc, fd = g(y_of(tc)), g(y_of(td))
        while y_of(tb) - y_of(ta) > _WIDTH_TOL * y_of(tb) and ev.evals < budget:
            if fc >= fd:
                tb, td, fd = td, tc, fc
                tc = tb - _GOLDEN * (tb - ta)
                fc = g(y_of(tc))
            else:
                ta, tc, fc = tc, td, fd
                td = ta + _GOLDEN * (tb - ta)
                fd = g(y_of(td))
    best_val, best_msg = best
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val)


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
                budget: int = 300) -> DynamicsResult:
    """Iterated best response; convergence is observed, never presumed.

    Each update is exact_best_response with `budget` evaluations. One row per
    (round, agent) records demand, rate, tax, and the round's best-response
    gain; the feasible flag certifies the shared constraints after the
    round's updates (the allocation map keeps it true by construction).
    The run stops once no gain exceeds epsilon. That is a fixed point
    only while every demand stays below the grid cap: the best response
    of an agent at the cap is cut off there, not a maximum."""
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
        out = evaluate(instance, profile, params)
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
            fixed_point = all(profile[ki].y < DEMAND_CAP * (1.0 - KINK_TOL)
                              for ki in instance.agents)
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
        slack = instance.capacity[lid] - _seq_sum(out.m[(k, lid)]
                                                  for k in instance.groups_on_link[lid])
        for k in instance.groups_on_link[lid]:
            comp = max(comp, abs(out.w[(k, lid)] * slack))
    for ki in instance.agents:
        for lid in instance.links_of[ki]:
            gap = instance.alpha[(ki, lid)] * out.x[ki] - out.m[(ki.group, lid)]
            comp = max(comp, abs(profile[ki].q[lid][0] * gap))

    stat = 0.0
    for ki in instance.agents:
        price = _seq_sum(instance.alpha[(ki, lid)] * profile[ki].q[lid][0]
                         for lid in instance.links_of[ki])
        resid = instance.valuation(ki).deriv(out.x[ki]) - price
        thresh = RATE_ATOL * max(instance.capacity[lid]
                                 for lid in instance.links_of[ki])
        stat = max(stat, abs(resid) if out.x[ki] > thresh else max(0.0, resid))

    ir = 0.0
    for ki in instance.agents:
        val = instance.valuation(ki)
        ir = max(ir, val.value(0.0) - (val.value(out.x[ki]) - out.taxes[ki].total))
    wbb_gap = max(0.0, -out.total_tax)
    sbb_gap = abs(out.total_tax) if sbb else 0.0
    rho_gap = 0.0
    if sbb:
        rho_gap = max(abs(profile[ki].rho - out.r) for ki in instance.agents)
    return LemmaReport(equal_prices, dual_feas, comp, stat, ir, wbb_gap,
                       sbb_gap, rho_gap)


# ---------------------------------------------------------------------------
# Local curvature (exact one-sided Hessians of own utility)

_EPS = float(np.finfo(float).eps)

def curvature_check(instance: NetworkInstance, candidate: CandidateNE) -> CurvatureReport:
    """Negative definiteness of every agent's own-utility Hessian.

    Each Hessian is DeviationEvaluator.local_model's, exact on each side
    of the demand. At y > 0 both one-sided Hessians are read and the agent
    is kinked when they differ; at y = 0 only the right one exists. A
    coordinate at exactly 0 whose exact one-sided derivative is negative
    is a boundary maximum in that direction: it is locked and leaves the
    matrix. An agent passes when the largest eigenvalue of each remaining
    one-sided Hessian is at most n * eps * max|H_ij|, the rounding bound
    of an eigenvalue of an n x n matrix. So a direction flat to rounding
    (a saturated agent's demand) passes, and no coupling-weight shrink is
    spent on it."""
    agents_out: Dict[AgentId, AgentCurvature] = {}
    for ki in instance.agents:
        ev = DeviationEvaluator(instance, candidate.profile, candidate.params, ki)
        msg = candidate.profile[ki]
        models = [ev.local_model(msg, +1)]
        if msg.y > 0.0:
            models.append(ev.local_model(msg, -1))
        kinked = len(models) == 2 and not np.array_equal(models[0].hess, models[1].hess)
        right = models[0]
        keep = [j for j, v in enumerate(right.point) if not (v == 0.0 and right.grad[j] < 0.0)]
        labels = [f"{kind}|{lid}" if lid else kind for kind, lid in ev.coords]
        locked = [labels[j] for j in range(len(labels)) if j not in keep]
        price_diag = {labels[j]: float(right.hess[j, j]) for j in keep
                      if ev.coords[j][0] in (COORD_Q1, COORD_Q2)}
        max_eig, passed = 0.0, True  # no coordinate left: every direction descends
        if keep:
            max_eig = -math.inf
            for m in models:
                H = m.hess[np.ix_(keep, keep)]
                top = float(np.linalg.eigvalsh(H)[-1])
                max_eig = max(max_eig, top)
                passed = passed and top <= len(keep) * _EPS * float(np.abs(H).max())
        agents_out[ki] = AgentCurvature(ki, passed, max_eig, price_diag,
                                        kinked, locked, len(keep))
    return CurvatureReport(agents_out)


def tune_params(instance: NetworkInstance, primal: PrimalSolution,
                dual: DualCertificate, params: MechanismParams
                ) -> Tuple[MechanismParams, int, CurvatureReport]:
    """Halve the coupling weights until local curvature passes everywhere;
    DegenerateInstanceError once eta would fall below 1e-8."""
    shrinks = 0
    while True:
        candidate = construct_ne(instance, primal, dual, params)
        report = curvature_check(instance, candidate)
        if report.all_pass:
            return params, shrinks, report
        if params.eta / 2.0 < 1e-8:
            raise DegenerateInstanceError("curvature still indefinite at the coupling floor 1e-8")
        params = params.halved()
        shrinks += 1

