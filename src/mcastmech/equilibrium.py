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
the best response is a one-dimensional maximum over the demand; between
two of its kinks (closed forms) the payoff is the valuation plus a
quadratic in the rate, with a closed-form maximum that utility prices.
The candidate is an epsilon equilibrium when no agent's best response
gains more than epsilon (Kakhbod and Teneketzis, IEEE JSAC 30(11), 2012,
build their multicast game form on the same separation of the deviation).

Certification reads the profile once: certify_ne and curvature_check
build every agent's DeviationEvaluator from one read of it, which no
evaluator writes, so per-agent best responses are independent; this
module runs them sequentially and leaves process-level parallelism to
sweep drivers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from .centralized import DualCertificate, PrimalSolution
from .errors import DegenerateInstanceError, EquilibriumError, SharingAssumptionError
from .mechanism import (COORD_Q1, COORD_Q2, DeviationEvaluator, KINK_TOL,
                        MechanismParams, Message, Profile, VARIANT_SBB,
                        _allocate, _evaluate, _evaluators, evaluate, validate_profile)
from .model import (AgentId, NetworkInstance, Valuation, _EPS, _tables,
                    constraint_violation, seq_sum)


@dataclass
class CandidateNE:
    profile: Profile
    params: MechanismParams


@dataclass
class BestResponseResult:
    """The best priced message, its gain and both utilities; `evals` counts
    utility calls and rate-model reads (one per kink piece); `complete` is
    False if the budget cut the search short; `pieces` holds
    (a, b, g'(a+), g'(b-)) per piece of g."""

    message: Message
    gain: float
    evals: int
    base_utility: float
    best_utility: float
    complete: bool
    pieces: List[Tuple[float, float, float, float]]


@dataclass
class CertificationReport:
    epsilon: float
    budget: int
    restarts: int
    seed: int
    gains: Dict[AgentId, float]
    evals: Dict[AgentId, int]
    deviations: Dict[AgentId, Message]
    incomplete: List[AgentId]
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
            "incomplete": [ki.label for ki in sorted(self.incomplete)],
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
        return asdict(self)


@dataclass
class AgentCurvature:
    """One agent's curvature_check verdict: `passed` when each one-sided
    Hessian, over that side's free coordinates, is negative definite to
    rounding; `max_eig` the larger of the two sides' largest eigenvalues
    (0 when no coordinate is free); `kinked` when the two one-sided
    Hessians differ. `locked` (the coordinates left out), `n_coords` (those
    kept) and `price_diag` (the kept quotes' Hessian diagonal) are the
    right side's, the one side that exists at y = 0."""

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

    An agent shut out at the optimum (a rate within the solver's zero-rate
    threshold, _Tables.zero_rate) demands 0, not the solver's residue.
    Refuses duals whose max KKT residual exceeds 1e-6 or whose sharing
    count (dual.residuals, which the solve computed from primal) has a link
    with fewer than two demanding groups, and a replay whose scale or rates
    drift from 1 and the optimum by more than a relative 1e-6."""
    residuals = dual.residuals
    if residuals.max_residual > 1e-6:
        raise EquilibriumError(
            f"duals too loose for construction: {residuals.max_residual:.3e}")
    if not residuals.a4_holds:
        bad = sorted(l for l, c in residuals.s_sizes.items() if c < 2)
        raise SharingAssumptionError(
            f"single demanding group at the optimum on: {', '.join(bad)}")
    T = _tables(instance)
    xs = [primal.x[ki] for ki in T.agents]
    ys = [x if x > zero else 0.0 for x, zero in zip(xs, T.zero_rate)]
    alloc = _allocate(T, ys)
    if abs(alloc.r - 1.0) > 1e-6:
        raise EquilibriumError(f"replayed scale {alloc.r} is not 1")
    # Per pair: its own dual, then its successor's (its own when alone in its group there).
    mus = [dual.mu[(ki, lid)] for ki, route in zip(T.agents, T.routes) for lid in route]
    quotes = [(mu, mu if succ < 0 else mus[succ])
              for mu, (_, _, _, _, _, succ) in zip(mus, T.pairs)]
    rho = alloc.r if params.variant == VARIANT_SBB else None
    profile: Profile = {
        ki: Message(y, dict(zip(route, quotes[lo:hi])), rho)
        for ki, route, y, lo, hi in zip(T.agents, T.routes, ys, T.starts, T.starts[1:])}
    err = max(abs(x - y) for x, y in zip(alloc.x.column, xs))
    if err > 1e-6 * max(1.0, max(abs(v) for v in xs)):
        raise EquilibriumError(f"replayed rates drift from the optimum by {err:.3e}")
    return CandidateNE(profile, params)


# ---------------------------------------------------------------------------
# Best response

DEMAND_CAP = 1e300  # largest demand tried; a best response there is cut off
_ZERO_PROBE = 1e-15  # past a jump of r at 0, g's right limit is read at this share of the scales
# Gains below this share of 1 + |u| are rounding: a utility sums terms that can outweigh u,
# and from the acceptance candidates, exact to the KKT residual, no gain reaches 60 eps of it.
_ROUNDING = 1024.0 * _EPS
_NEAR_BEST = 1e-9  # model values within this share of 1 + |u| of the model's best are priced


class _Truncated(Exception):
    """The evaluation budget ran out before every piece was certified."""


def exact_best_response(instance: NetworkInstance, profile: Profile, ki: AgentId,
                        params: MechanismParams, budget: int = 1000
                        ) -> BestResponseResult:
    """Agent ki's best response: the maximum of g(y), the utility of
    best_message(y), from a closed-form model of each piece of g.

    The kinks of the allocation (demand_kinks, merged within KINK_TOL)
    split y >= 0 into kink pieces, and one rate-model read per kink piece
    (DeviationEvaluator.rate_model) gives g there in x = r*y. The rates
    where a best first quote reaches 0, x = (2k - f0)/f1, mapped to the
    demand (one within KINK_TOL of a piece end merges with it), split it
    further; on each resulting piece g = V(x) + A*x^2 + B*x + C, with A, B
    and the maximisers closed forms (_piece). C is chained across pieces by
    the continuity of g and anchored at g(DEMAND_CAP), where x has
    saturated. Every piece end and root whose model value lies within 1e-9
    of 1 + |u| of the model's best is priced by utility, as are the
    incumbent, g(DEMAND_CAP) and g(0) if r jumps there (jumps_at_zero);
    the best priced message wins. Of such demands within KINK_TOL*y of one
    another only the least is priced: a crest root a few ulps from a kink
    differs from it in g at second order, as g' = 0 there.

    `budget` caps the utility calls and rate-model reads together. A
    search it cuts short returns the best value seen with complete=False,
    which is no maximum. The incumbent is a candidate, so the gain is
    never negative."""
    return _best_response(DeviationEvaluator(instance, profile, params, ki), profile[ki], budget)


def _quadratic(links, x: float) -> Tuple[float, float, List[bool]]:
    """(A, B, free) of g = V(x) + A*x^2 + B*x + C on a piece of one kink
    piece, from the rate model's links (DeviationEvaluator.rate_model),
    each first quote free or clipped as it is at rate x: free where
    k - F/2 > 0. A sums f1^2/4 over the free quotes; B is minus the sum of
    lin, plus f0*f1/2 over the free quotes and k*f1 over the clipped ones."""
    A = B = 0.0
    free = []
    for k, f0, f1, lin in links:
        free.append(k - 0.5 * (f0 + f1 * x) > 0.0)
        B -= lin
        if free[-1]:
            A += 0.25 * f1 * f1
            B += 0.5 * f0 * f1
        else:
            B += k * f1
    return A, B, free


def _piece(val: Valuation, a: float, b: float, model):
    """Piece [a, b] of g, inside the kink piece whose rate model
    (DeviationEvaluator.rate_model) is model: its record (a, b, g'(a+),
    g'(b-)), candidates (demand, model value above a's) and rise.

    One offer c / (rest + a_e*y) binds, so x = c*y / (rest + a_e*y), and
    no first quote turns 0 inside the piece, so A and B are _quadratic's
    at the piece's middle rate. As V''' > 0, h = V + A*x^2 + B*x is
    concave up to val.turn and convex past it, so it peaks at an end or at
    the root of h' on the concave part (val.crest), mapped back by
    y = x*rest / (c - a_e*x); g' = h'(x)*c*rest/den^2, den = rest + a_e*y.
    The last piece ends where x reaches c/a_e to rounding."""
    top = b
    (c, rest, a_e), links = model
    if b == DEMAND_CAP and a_e * a < rest / _EPS < a_e * DEMAND_CAP:
        b = rest / _EPS / a_e
    den_a, den_b = rest + a_e * a, rest + a_e * b
    xa, xb = c * a / den_a, c * b / den_b
    A, B, _ = _quadratic(links, 0.5 * (xa + xb))

    def h(x: float) -> float:
        return val.value(x) + (A * x + B) * x - val.value(xa) - (A * xa + B) * xa

    def dh(x: float) -> float:
        return val.deriv(x) + 2.0 * A * x + B

    cands = [(a, 0.0), (top, h(xb))]
    end = min(val.turn(A), xb)
    if dh(xa) > 0.0 and xa < end and dh(end) < 0.0:
        x = val.crest(A, B, xa, end)
        y = x * rest / (c - a_e * x) if c > a_e * x else b
        cands.append((min(max(y, a), b), h(x)))
    return ((a, b, dh(xa) * (c * rest / den_a / den_a), dh(xb) * (c * rest / den_b / den_b)),
            cands, cands[1][1])


def _best_response(ev: DeviationEvaluator, incumbent: Message, budget: int
                   ) -> BestResponseResult:
    """exact_best_response on ev, from ki's message incumbent."""
    if budget <= 0:
        raise ValueError(f"evaluation budget must be positive, got {budget}")
    current = incumbent.copy()
    base = ev.utility(current)
    priced = {}  # demand -> (g, best message)
    pieces: List[Tuple[float, float, float, float]] = []

    def within_budget(y: float) -> float:  # y, if the budget allows one more evaluation
        if ev.evals >= budget:
            raise _Truncated
        return y

    def g(y: float) -> float:
        msg = ev.best_message(within_budget(y), current)
        priced[y] = (ev.utility(msg), msg)
        return priced[y][0]

    kinks, knees = ev.demand_kinks()
    jump = ev.jumps_at_zero()
    ends = [_ZERO_PROBE * min(kinks + knees) if jump else 0.0]
    for y in sorted(kinks):
        if y - ends[-1] > KINK_TOL * y and y < DEMAND_CAP:
            ends.append(y)
    ends.append(DEMAND_CAP)

    complete = True
    try:
        scored, total = [], 0.0  # candidates by model value, C = 0 at the first piece's start
        for lo, hi in zip(ends, ends[1:]):
            model = ev.rate_model(within_budget(lo))
            (c, rest, a_e), links = model
            # where a first quote turns 0, k - F/2 = 0, mapped to the demand
            roots = [(2.0 * k - f0) / f1 for k, f0, f1, _ in links if f1]
            clips = sorted({y for y in (x * rest / (c - a_e * x) for x in roots if c > a_e * x)
                            if min(y - lo, hi - y) > KINK_TOL * y})
            for a, b in zip([lo, *clips], [*clips, hi]):
                piece, cands, rise = _piece(ev.valuation, a, b, model)
                pieces.append(piece)
                scored += [(y, total + v) for y, v in cands]
                total += rise
        if jump:
            g(0.0)
        anchor = g(DEMAND_CAP) - total
        most = max(v for _, v in scored) + anchor
        near = most - _NEAR_BEST * (1.0 + abs(most)) - anchor
        for y in sorted({y for y, v in scored if v >= near}):
            if all(abs(y - z) > KINK_TOL * y for z in priced):
                g(y)
    except _Truncated:
        complete = False
    # the first of equal utilities wins: the incumbent, then the least demand
    best_val, best_msg = max([(base, current)] + [priced[y] for y in sorted(priced)],
                             key=lambda pair: pair[0])
    return BestResponseResult(best_msg, best_val - base, ev.evals, base, best_val,
                              complete, pieces)


def certify_ne(instance: NetworkInstance, candidate: CandidateNE, epsilon: float,
               budget: int = 1000, restarts: int = 8, seed: int = 0
               ) -> CertificationReport:
    """Epsilon-equilibrium check: no agent's best response may gain more
    than epsilon over its candidate message.

    Each gain is exact_best_response's maximum, priced by utility.
    `budget` caps the utility calls and rate-model reads per agent; an
    agent it cuts short is listed in `incomplete`, and then the candidate
    is not certified. `restarts` and `seed` are recorded and steer nothing."""
    gains: Dict[AgentId, float] = {}
    evals: Dict[AgentId, int] = {}
    deviations: Dict[AgentId, Message] = {}
    incomplete: List[AgentId] = []
    for ev in _evaluators(instance, candidate.profile, candidate.params):
        ki = ev.ki
        br = _best_response(ev, candidate.profile[ki], budget)
        gains[ki] = br.gain
        evals[ki] = br.evals
        deviations[ki] = br.message
        if not br.complete:
            incomplete.append(ki)
    certified = not incomplete and max(gains.values()) <= epsilon
    return CertificationReport(epsilon, budget, restarts, seed, gains, evals,
                               deviations, incomplete, certified)


# ---------------------------------------------------------------------------
# Best-response dynamics

def br_dynamics(instance: NetworkInstance, initial: Profile,
                params: MechanismParams, rounds: int = 50, epsilon: float = 1e-8,
                budget: int = 300) -> DynamicsResult:
    """Iterated best response; convergence is observed, never presumed.

    Agents respond in turn (Gauss-Seidel): each update is
    exact_best_response with `budget` evaluations against the profile as
    the round has left it so far, adopted at once and only when it gains
    more than the utility's rounding. One row per
    (round, agent) records demand, rate, tax, and the round's best-response
    gain; the feasible flag certifies the shared constraints after the
    round's updates (the allocation map keeps it true by construction).
    The run stops once no gain exceeds epsilon. That is a fixed point
    only if every best response of the round ran to completion within
    `budget` and every demand stays below DEMAND_CAP: the best response
    of an agent at the cap is cut off there, not a maximum."""
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    validate_profile(instance, initial, params.variant)
    profile = {ki: initial[ki].copy() for ki in instance.agents}
    rows: List[Dict[str, object]] = []
    fixed_point = False
    rounds_run = 0
    for rnd in range(1, rounds + 1):
        rounds_run = rnd
        round_gains: Dict[AgentId, float] = {}
        complete = True
        for ki in instance.agents:
            br = exact_best_response(instance, profile, ki, params, budget)
            round_gains[ki], complete = br.gain, complete and br.complete
            if br.gain > _ROUNDING * (1.0 + abs(br.base_utility)):
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
            fixed_point = complete and all(profile[ki].y < DEMAND_CAP * (1.0 - KINK_TOL)
                                           for ki in instance.agents)
            break
    return DynamicsResult(rows, fixed_point, rounds_run, profile)


# ---------------------------------------------------------------------------
# Lemma suite

def lemma_suite(instance: NetworkInstance, candidate: CandidateNE) -> LemmaReport:
    """Numeric residual of every equilibrium property at the given profile.

    Read from the outcome and the read of the profile that evaluate
    priced, through the instance tables, in the order of a loop over links
    and groups, then agents and their route links."""
    sbb = candidate.params.variant == VARIANT_SBB
    read, out = _evaluate(instance, candidate.profile, candidate.params)
    T, q1s, ws, rhos = read.T, read.q1s, read.ws, read.rhos
    # the outcome's columns run in table order, and its taxes in agent order
    xs, ms = out.x.column, out.m.column

    equal_prices = max([abs(w - wb) for w, wb in zip(ws, out.w_bar.column)])
    # the most negative quote or rho; -min(q) is max(-q) bit for bit
    dual_feas = max(0.0, -min(q1s), -min(read.q2s), -min(rhos) if sbb else 0.0)

    comp = 0.0
    for c, slots in zip(T.capacity, T.link_slots):
        slack = c - seq_sum([ms[s] for s in slots])
        comp = max(comp, *[abs(ws[s] * slack) for s in slots])
    comp = max(comp, *[abs(q1 * (alpha * xs[a] - ms[s]))
                       for (a, _, s, alpha, _, _), q1 in zip(T.pairs, q1s)])

    prices = [alpha * q1 for (_, _, _, alpha, _, _), q1 in zip(T.pairs, q1s)]
    stat = ir = 0.0
    for ki, x, tax, zero, lo, hi in zip(T.agents, xs, out.taxes.values(), T.zero_rate,
                                        T.starts, T.starts[1:]):
        val = instance.valuation(ki)
        resid = val.deriv(x) - seq_sum(prices[lo:hi])
        stat = max(stat, abs(resid) if x > zero else max(0.0, resid))
        ir = max(ir, val.value(0.0) - (val.value(x) - tax.total))
    wbb_gap = max(0.0, -out.total_tax)
    sbb_gap = abs(out.total_tax) if sbb else 0.0
    rho_gap = max(abs(rho - out.r) for rho in rhos) if sbb else 0.0
    return LemmaReport(equal_prices, dual_feas, comp, stat, ir, wbb_gap,
                       sbb_gap, rho_gap)


# ---------------------------------------------------------------------------
# Local curvature (exact one-sided Hessians of own utility)

def curvature_check(instance: NetworkInstance, candidate: CandidateNE) -> CurvatureReport:
    """Negative definiteness of every agent's own-utility Hessian.

    Each Hessian is DeviationEvaluator.local_model's, on each side of the
    demand and in the rate x = r*y: its demand entry leaves out U_x*x'',
    which is 0 at a stationary demand, so its eigenvalue signs are those of
    the Hessian in (x, q, rho) (Sylvester's law of inertia; Nocedal and
    Wright, Numerical Optimization, 2nd ed., 2006, ch. 12, for the
    second-order conditions). At y > 0 both one-sided Hessians are read and
    the agent is kinked when they differ; at y = 0 only the right one
    exists. Each
    side keeps the coordinates of its LocalModel.free mask: a first quote
    whose best value is 0 on that side (the mechanism's one clip rule,
    whose roots split the best response's pieces) or a demand at 0 with a
    negative slope is a boundary maximum in that direction and leaves that
    side's matrix, so the two sides may keep different coordinates. An
    agent passes when the largest eigenvalue of each side's remaining
    Hessian is at most n * eps * max|H_ij|, n being that side's coordinate
    count: the rounding bound of an eigenvalue of an n x n matrix. So a
    direction flat to rounding (a saturated agent's demand) passes."""
    agents_out: Dict[AgentId, AgentCurvature] = {}
    for ev in _evaluators(instance, candidate.profile, candidate.params):
        ki = ev.ki
        msg = candidate.profile[ki]
        models = [ev.local_model(msg, +1)]
        if msg.y > 0.0:
            models.append(ev.local_model(msg, -1))
        kinked = len(models) == 2 and not np.array_equal(models[0].hess, models[1].hess)
        right = models[0]
        labels = [f"{kind}|{lid}" if lid else kind for kind, lid in ev.coords]
        locked = [label for label, free in zip(labels, right.free) if not free]
        price_diag = {labels[j]: float(right.hess[j, j]) for j in np.flatnonzero(right.free)
                      if ev.coords[j][0] in (COORD_Q1, COORD_Q2)}
        tops, passed = [], True
        for m in models:
            H = m.hess[m.free][:, m.free]
            if len(H):
                top = float(np.linalg.eigvalsh(H)[-1])
                tops.append(top)
                passed = passed and top <= len(H) * _EPS * float(np.abs(H).max())
        max_eig = max(tops, default=0.0)  # no coordinate left: every direction descends
        agents_out[ki] = AgentCurvature(ki, passed, max_eig, price_diag,
                                        kinked, locked, int(right.free.sum()))
    return CurvatureReport(agents_out)


def tune_params(instance: NetworkInstance, primal: PrimalSolution,
                dual: DualCertificate, params: MechanismParams
                ) -> Tuple[MechanismParams, int, CurvatureReport]:
    """Check the candidate's local curvature once, at the given params:
    (params, 0, report) when every agent passes curvature_check, else
    DegenerateInstanceError naming the agents that fail.

    The weights are never tuned: a smaller coupling that passes would
    certify a mechanism other than the one asked for, whose candidate may
    gain by deviating at the given weights. The count in the middle, the
    coupling-weight shrinks, is always 0."""
    return params, 0, _curvature_gate(instance, construct_ne(instance, primal, dual, params))


def _curvature_gate(instance: NetworkInstance, candidate: CandidateNE) -> CurvatureReport:
    """curvature_check's report on candidate when every agent passes, else
    DegenerateInstanceError naming the agents that fail."""
    report = curvature_check(instance, candidate)
    failed = [ki.label for ki, agent in report.agents.items() if not agent.passed]
    if failed:
        raise DegenerateInstanceError("own-utility curvature indefinite at the candidate for "
                                      "agents " + ", ".join(failed))
    return report

