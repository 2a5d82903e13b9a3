"""Message space, allocation map, and tax schemes.

Each agent reports a demand y >= 0 and, per route link, a pair of price
quotes (q1, q2): q1 prices the agent's own bounding constraint, q2 prices
the constraint of its cyclic group successor on that link. The strong
budget balance (SBB) variant adds a scaling estimate rho.

Allocation: per link, each group's weighted peak demand n = max alpha*y is
computed, and the group demands there when n > 0 (a demand too small to
survive the weighting does not count); a link with two or more demanding
groups offers scale c / sum(n),
a link with exactly one demanding group offers c / (n + 1) (the shaved
offer keeps a lone group from absorbing the full capacity), and an idle
link offers no bound. The realized scale r is the smallest finite offer
and every rate is x = r*y, every group reservation m = r*n. All-zero
demand yields r = 0 so that x = r*y still holds and taxes stay finite.

Taxes decompose per link into six slots:
  1. payment: x * alpha * (predecessor's q2), group-mean rival price w_bar
     substituted when the agent is alone in its group on the link;
  2. quote matching: (own q2 - successor's q1)^2, zero for singletons;
  3. price coherence: (w - w_bar)^2 on the group price sums;
  4. eta-weighted consistency: couples own q1 to the reservation gap;
  5. xi-weighted capacity: couples the group price gap to link slack;
  6. SBB redistribution rebate (0 under WBB): the agent receives
     rho_bar / (n_l - 1) times the other agents' self-quoted payments
     sum_{b != ki} alpha_b * q1_b * y_b on the link. No message of the
     receiving agent enters it (rho_bar leaves out its own rho), so the
     rebate cannot be steered by the agent it pays (Walker 1981). At an
     equilibrium q1_b equals b's price factor and rho_bar = r, so the
     rebates return the link's payments exactly and taxes sum to zero.
SBB adds a per-agent zeta*(rho - r)^2 consensus term on top.

Each instance is compiled once into flat index tables that the solver
reads too (model._tables), and each profile is read once, and checked in
the same pass (validate_profile).
evaluate() prices that read in one pass, its sums in fixed orders and its
slots from _link_slots, and every DeviationEvaluator is built from a read,
so the two agree bit for bit.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InstanceFormatError, MessageShapeError
from .model import (AgentId, NetworkInstance, _Tables, _number, _tables, _unique_keys,
                    canonical_json, seq_sum)

VARIANT_WBB = "wbb"
VARIANT_SBB = "sbb"
VARIANTS = (VARIANT_WBB, VARIANT_SBB)

NO_BOUND = math.inf  # per-link sentinel: nothing on the link constrains r
# Relative distance within which two demands, two peaks or two offers count
# as one kink of the allocation in ki's demand.
KINK_TOL = 1e-9

COORD_Y, COORD_Q1, COORD_Q2, COORD_RHO = "y", "q1", "q2", "rho"


@dataclass(frozen=True)
class MechanismParams:
    """Coupling weights for the consistency terms and the SBB consensus."""

    eta: float = 1e-2
    xi: float = 1e-2
    zeta: float = 1e-2
    variant: str = VARIANT_WBB

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if min(self.eta, self.xi) <= 0.0 or (self.variant == VARIANT_SBB and self.zeta <= 0.0):
            raise ValueError("coupling weights must be positive")
        if not all(map(math.isfinite, (self.eta, self.xi, self.zeta))):
            raise ValueError("coupling weights must be finite")

    def halved(self) -> "MechanismParams":
        return replace(self, eta=self.eta / 2, xi=self.xi / 2, zeta=self.zeta / 2)


@dataclass
class Message:
    y: float
    q: Dict[str, Tuple[float, float]]
    rho: Optional[float] = None

    def copy(self) -> "Message":
        return Message(self.y, dict(self.q), self.rho)


Profile = Dict[AgentId, Message]


@dataclass
class TaxBreakdown:
    per_link: Dict[str, Tuple[float, float, float, float, float, float]]
    zeta_term: float
    total: float


@dataclass
class AllocationResult:
    r: float
    r_per_link: Dict[str, float]
    n: Dict[Tuple[int, str], float]
    x: Dict[AgentId, float]
    m: Dict[Tuple[int, str], float]


@dataclass
class Outcome(AllocationResult):
    w: Dict[Tuple[int, str], float]
    w_bar: Dict[Tuple[int, str], float]
    rho_bar: Dict[AgentId, float]
    taxes: Dict[AgentId, TaxBreakdown]
    total_tax: float


def zero_message(instance: NetworkInstance, ki: AgentId, variant: str) -> Message:
    q = {lid: (0.0, 0.0) for lid in instance.links_of[ki]}
    return Message(0.0, q, 0.0 if variant == VARIANT_SBB else None)


# ---------------------------------------------------------------------------
# Allocation

def _offer(capacity: float, total: float, n_demanding: int) -> float:
    """A link's offer from its groups' peak total (summed in group order) and
    the number of groups demanding on it."""
    if not n_demanding:
        return NO_BOUND
    if n_demanding >= 2:
        return capacity / total
    return capacity / (total + 1.0)


def _weighted(T: _Tables, ys: List[float]) -> List[float]:
    """Per pair, its agent's demand (ys in agent order) times its weight."""
    return [alpha * ys[a] for a, _, _, alpha, _, _ in T.pairs]


def _peaks_offers(T: _Tables, ay: List[float]):
    """Per slot the peak of the weighted demands ay (_weighted), and per link
    the offer. A group demands on a link when its peak is positive."""
    peaks = []
    for pairs in T.slot_pairs:
        best = 0.0
        for p in pairs:
            if ay[p] > best:
                best = ay[p]
        peaks.append(best)
    offers = []
    for c, slots in zip(T.capacity, T.link_slots):
        link_peaks = [peaks[s] for s in slots]
        offers.append(_offer(c, seq_sum(link_peaks), sum(p > 0.0 for p in link_peaks)))
    return peaks, offers


def _allocation(T: _Tables, ys: List[float], peaks: List[float],
                offers: List[float]) -> AllocationResult:
    """The allocation of demands ys (agent order) from their peaks and
    offers (_peaks_offers)."""
    finite = [v for v in offers if v != NO_BOUND]
    r = min(finite) if finite else 0.0  # all-zero demand collapses to x = 0
    return AllocationResult(r, dict(zip(T.link_ids, offers)), dict(zip(T.slot_keys, peaks)),
                            {ki: r * y for ki, y in zip(T.agents, ys)},
                            {key: r * p for key, p in zip(T.slot_keys, peaks)})


def allocate(instance: NetworkInstance, y: Dict[AgentId, float]) -> AllocationResult:
    T = _tables(instance)
    ys = [y[ki] for ki in T.agents]
    return _allocation(T, ys, *_peaks_offers(T, _weighted(T, ys)))


# ---------------------------------------------------------------------------
# Taxes

def _others_sums(entries: List[float]) -> List[float]:
    """Per entry, the sum of the other entries: the entries before it added
    in order plus those after it added in reverse. An entry never enters
    its own sum, so that sum is independent of it bit for bit (the total
    minus the entry would carry a rounding error of the size of the entry)."""
    after = list(accumulate(reversed(entries), initial=0.0))
    after.pop()
    after.reverse()
    return [b + a for b, a in zip(accumulate(entries, initial=0.0), after)]


def _rebates(T: _Tables, ys: List[float], q1s: List[float], rhos: List[float]):
    """SBB: per pair, the other agents' entries in its link's rebate pool
    (self-quoted payments alpha * q1 * y, summed in link_pairs order),
    and per agent the mean of the other agents' rhos."""
    pay = [alpha * q1 * ys[a] for (a, _, _, alpha, _, _), q1 in zip(T.pairs, q1s)]
    others = [0.0] * len(pay)
    for pairs in T.link_pairs:
        for p, total in zip(pairs, _others_sums([pay[p] for p in pairs])):
            others[p] = total
    return others, [total / (len(rhos) - 1) for total in _others_sums(rhos)]


def _link_slots(params: MechanismParams, a: float, y: float, x: float, r: float,
                q1: float, q2: float, pf: float, q1_succ: Optional[float],
                m_k: float, wk: float, wb: float, slack: float,
                rho_bar: Optional[float], n_l: int, others_pay: float):
    """The six tax slots of one agent on one link (see the module docstring).

    pf is the agent's price factor, q1_succ its successor's first quote
    (None when it is alone in its group on the link), rho_bar its rival
    rho mean (None under WBB) and others_pay the other agents' entries in
    the link's rebate pool. evaluate() and DeviationEvaluator both price
    through here, so their results agree bit for bit."""
    # = x * alpha * pf, multiplied in this order so outputs stay byte-stable
    t1 = r * (a * pf * y)
    # d * d, not d ** 2: a float power overflows past 1.3e154
    t2 = 0.0 if q1_succ is None else (q2 - q1_succ) * (q2 - q1_succ)
    dw = wk - wb
    t3 = dw * dw
    t4 = params.eta * pf * (q1 - pf) * (m_k - a * x)
    t5 = params.xi * wb * dw * slack
    t6 = 0.0 if rho_bar is None else -(rho_bar / (n_l - 1)) * others_pay
    return t1, t2, t3, t4, t5, t6


def _rival_count(T: _Tables, l: int) -> int:
    """The number of rival groups any group on link l has (at least 1)."""
    if T.rivals[l] < 1:
        raise MessageShapeError(f"link {T.link_ids[l]} carries one group, rival mean "
                                f"undefined; validation should have rejected this instance")
    return T.rivals[l]


def _quote_sums(T: _Tables, q1s: List[float]) -> List[float]:
    """Per slot, its members' first quotes summed in member order."""
    ws = []  # summed inline like seq_sum: a call per slot would cost more than its sum
    for pairs in T.slot_pairs:
        w = 0.0
        for p in pairs:
            w += q1s[p]
        ws.append(w)
    return ws


def evaluate(instance: NetworkInstance, profile: Profile, params: MechanismParams) -> Outcome:
    """Full outcome for a message profile: allocation, prices, all taxes.

    One pass over the profile's read: w sums in member order, w_bar and link
    loads in group order, each total along the route, total_tax by agent."""
    return _evaluate(instance, profile, params)[1]


def _evaluate(instance: NetworkInstance, profile: Profile, params: MechanismParams
              ) -> Tuple[_ProfileRead, Outcome]:
    """evaluate(), with the read of the profile that it priced."""
    read = validate_profile(instance, profile, params.variant)
    T, ys, q1s, q2s, ws = read.T, read.ys, read.q1s, read.q2s, read.ws
    if T.lone is not None:
        _rival_count(T, T.lone)  # raises: a lone group has no rival mean
    alloc = _allocation(T, ys, read.peaks, read.offers)
    r, xs, ms = alloc.r, list(alloc.x.values()), list(alloc.m.values())
    wbs, slack, w_bar = [0.0] * len(ws), [], {}
    for link_slots, n_rivals, c in zip(T.link_slots, T.rivals, T.capacity):
        total = seq_sum([ws[s] for s in link_slots])
        for s in link_slots:
            wbs[s] = w_bar[T.slot_keys[s]] = (total - ws[s]) / n_rivals
        slack.append(c - seq_sum([ms[s] for s in link_slots]))
    sbb = params.variant == VARIANT_SBB
    rho_bars = read.rho_bars if sbb else [None] * len(ys)
    pair_slots, n_on_link = [], T.n_on_link
    for (a, l, s, alpha, pred, succ), q1, q2, pay in zip(T.pairs, q1s, q2s, read.others):
        wb = wbs[s]
        pair_slots.append(_link_slots(params, alpha, ys[a], xs[a], r, q1, q2,
                                      wb if succ < 0 else q2s[pred],
                                      None if succ < 0 else q1s[succ], ms[s], ws[s], wb,
                                      slack[l], rho_bars[a], n_on_link[l], pay))
    taxes = {}
    total_tax = 0.0
    for a, (ki, route) in enumerate(zip(T.agents, T.routes)):
        own = pair_slots[T.starts[a]:T.starts[a + 1]]
        total = 0.0
        for t1, t2, t3, t4, t5, t6 in own:
            total += t1 + t2 + t3 + t4 + t5 + t6
        zeta_term = 0.0
        if sbb:
            dev = read.rhos[a] - r
            zeta_term = params.zeta * (dev * dev)
            total += zeta_term
        taxes[ki] = TaxBreakdown(dict(zip(route, own)), zeta_term, total)
        total_tax += total
    return read, Outcome(**vars(alloc), w=dict(zip(T.slot_keys, ws)), w_bar=w_bar,
                         rho_bar=dict(zip(T.agents, rho_bars)) if sbb else {}, taxes=taxes,
                         total_tax=total_tax)


def utilities(instance: NetworkInstance, profile: Profile,
              params: MechanismParams) -> Dict[AgentId, float]:
    out = evaluate(instance, profile, params)
    return {ki: instance.valuation(ki).value(out.x[ki]) - out.taxes[ki].total
            for ki in instance.agents}


class _ProfileRead(namedtuple("_ProfileRead", "instance T ys rhos q1s q2s ay peaks offers "
                                               "ws others rho_bars")):
    """One read of a profile (validate_profile), which evaluate() prices and
    from which every agent's DeviationEvaluator is built (_evaluators): per
    agent the demand and rho, per pair the quotes and the weighted demand,
    per slot the peak and the first-quote sum, per link the offer and,
    under SBB, per pair the other agents' entries in its link's rebate pool
    and per agent the others' rho mean (None under WBB). The evaluators
    copy what they rewrite, so the read is never written after it is made."""


def _agent_label(ki) -> str:
    """ki's label, or its repr if it is no AgentId."""
    return ki.label if isinstance(ki, AgentId) else repr(ki)


def validate_profile(instance: NetworkInstance, profile: Profile, variant: str) -> _ProfileRead:
    """The read of profile under variant, checked in the same pass: every
    entry point that takes a profile reads it here, and MessageShapeError
    names the first fault in agent order (missing agents first, then
    entries for agents the instance lacks)."""
    if variant not in VARIANTS:
        raise MessageShapeError(f"unknown variant {variant!r}")
    T = _tables(instance)
    missing = [ki for ki in T.agents if ki not in profile]
    if missing:
        raise MessageShapeError(
            "profile missing agents: " + ", ".join(ki.label for ki in missing))
    if len(profile) != len(T.agents):  # every agent is in it, so something else is too
        known = set(T.agents)
        raise MessageShapeError("profile holds agents not in the instance: " + ", ".join(
            _agent_label(k) for k in profile if k not in known))
    sbb = variant == VARIANT_SBB
    msgs = [profile[ki] for ki in T.agents]
    for ki, msg, want, solo in zip(T.agents, msgs, T.route_keys, T.solo_links):
        if msg.q.keys() != want:
            raise MessageShapeError(
                f"agent {ki.label}: quotes keyed by {sorted(msg.q)}, route is {sorted(want)}")
        if not (msg.y >= 0.0 and math.isfinite(msg.y)):
            raise MessageShapeError(f"agent {ki.label}: demand {msg.y} invalid")
        for lid, pair in msg.q.items():
            if len(pair) != 2 or not (pair[0] >= 0.0 and math.isfinite(pair[0])
                                      and pair[1] >= 0.0 and math.isfinite(pair[1])):
                raise MessageShapeError(f"agent {ki.label}: bad quote pair on {lid}")
        if sbb:
            if msg.rho is None or not (msg.rho >= 0.0 and math.isfinite(msg.rho)):
                raise MessageShapeError(f"agent {ki.label}: SBB requires rho >= 0")
            if solo is not None:
                raise MessageShapeError(
                    f"link {solo} carries a single agent, SBB rebate undefined")
        elif msg.rho is not None:
            raise MessageShapeError(f"agent {ki.label}: rho present under WBB")
    ys, rhos = [msg.y for msg in msgs], [msg.rho for msg in msgs]
    quotes = [msg.q[lid] for msg, route in zip(msgs, T.routes) for lid in route]
    q1s, q2s = [q[0] for q in quotes], [q[1] for q in quotes]
    ay = _weighted(T, ys)
    others, rho_bars = _rebates(T, ys, q1s, rhos) if sbb else ([0.0] * len(q1s), None)
    return _ProfileRead(instance, T, ys, rhos, q1s, q2s, ay, *_peaks_offers(T, ay),
                        _quote_sums(T, q1s), others, rho_bars)


class _RouteLink:
    """What the other agents fix on one link of the deviator's route.

    The lists hold one entry per group (peaks, ws) or per group member
    (q1s), in the order evaluate() sums them; the pricing layer of
    DeviationEvaluator rewrites the deviator's slot (gpos, mpos) in them,
    and every value at a demand (r, the group peak, the load) is their
    realized sum (_scale). The model layer reads no list and supplies
    only slopes in the demand: its offer form is
    c / (base + max(peak_mates, a*y)), base being rest, the other groups'
    peak total, plus 1 when no other group demands there. The prices are
    the fixed fields that follow: s_mates
    is the sum of the group-mates' first quotes, wb the rival groups' mean
    price (all sums less the own, as utility() prices), pf the price
    factor (the predecessor's second quote, or wb when ki is alone in its
    group, where utility() reads its live wb) and others_pay the other
    agents' entries in the SBB rebate pool."""

    __slots__ = ("lid", "a", "capacity", "peak_mates", "others_demanding", "peaks",
                 "gpos", "q1s", "mpos", "ws", "n_rivals", "pf", "q1_succ",
                 "others_pay", "n_l", "s_mates", "wb", "rest", "base")

    def __init__(self, read: _ProfileRead, p: int):
        """The snapshot of pair p (ki and one of its route links) in read."""
        T = read.T
        _, l, s, self.a, pred, succ = T.pairs[p]
        self.gpos, self.mpos = T.places[p]
        self.lid = T.link_ids[l]
        self.capacity = T.capacity[l]
        self.n_rivals = _rival_count(T, l)
        # sums in seq_sum's order, inline: this runs once per pair and agent
        members = T.slot_pairs[s]
        self.q1s = [read.q1s[b] for b in members]
        peak_mates = s_mates = 0.0
        for b, q1 in zip(members, self.q1s):
            if b != p:
                s_mates += q1
                if read.ay[b] > peak_mates:
                    peak_mates = read.ay[b]
        self.peak_mates, self.s_mates = peak_mates, s_mates
        self.peaks = [read.peaks[t] for t in T.link_slots[l]]
        rest, others_demanding = 0.0, 0
        for g, v in enumerate(self.peaks):
            if g != self.gpos:
                rest += v
                others_demanding += v > 0.0
        self.rest, self.others_demanding = rest, others_demanding
        self.base = rest + (others_demanding == 0)  # plus the lone-group offer's 1
        self.ws = [read.ws[t] for t in T.link_slots[l]]
        self.wb = (seq_sum(self.ws) - self.ws[self.gpos]) / self.n_rivals
        self.pf = self.wb if succ < 0 else read.q2s[pred]
        self.q1_succ = None if succ < 0 else read.q1s[succ]
        self.n_l = T.n_on_link[l]
        self.others_pay = read.others[p]


def _q1_free(q1: float, g1: float, coupling: float, y: float, side: int) -> bool:
    """Whether ki's best first quote on a route link is positive KINK_TOL*y
    to `side` of demand y, from a quote q1, its gradient g1 and its y
    coupling there: the best quote is max(0, E) with E = q1 + g1/2 and
    E' = coupling/2 (_best_q1). The one clip rule: demand_slope reads a
    free quote's coupling into g'', and local_model leaves a clipped one
    out of LocalModel.free."""
    return 2.0 * q1 + g1 + side * KINK_TOL * y * coupling > 0.0


class LocalModel(NamedTuple):
    """ki's own utility to second order on one side of its demand, over
    DeviationEvaluator.coords: the coordinate values, the exact one-sided
    gradient and Hessian, whether r jumps there (then both are those of
    the one-sided limit), and per coordinate whether it is free on that
    side. A q1 is free where _q1_free says its best value is positive,
    the demand unless it is 0 with a negative slope, and q2 and rho always
    (at 0 their gradients, 2*q1_succ and 2*zeta*r, are not negative)."""

    point: List[float]
    grad: np.ndarray
    hess: np.ndarray
    jumped: bool
    free: np.ndarray


class DeviationEvaluator:
    """Utility of one agent's candidate messages while the rest of the
    profile stays fixed, with a count of utility and demand_slope calls in
    `evals`.

    It snapshots what the other agents' messages fix from one read of the
    profile (_ProfileRead; certify_ne and curvature_check build every
    agent's evaluator from one shared read, _evaluators): the smallest
    finite offer off ki's route, a _RouteLink per route link and, under
    SBB, the others' rho mean. Later edits to the profile dict or to the
    other agents' Message objects do not reach the evaluator.

    The pricing layer (_scale, utility, best_message) re-prices only ki's
    route links, in the operation order of evaluate(), so utility(msg)
    equals utilities(instance, patched, params)[ki] bit for bit, where
    patched is the snapshot profile with ki's message replaced by msg.
    _scale is the one producer of the allocation at a demand: utility,
    best_message and local_model and demand_slope (through _y_row) all
    take r, x, the reservation gaps and the slacks from it. The model
    layer (scale_slopes down to demand_kinks) supplies only what values at
    one demand cannot: the one-sided slopes in the demand, and the
    right-hand limit at y = 0 where r jumps. Route link l offers
    c / (base + max(pm, a*y)), so 1/r(y) is the upper envelope of a few
    lines in y. So g'(y) = demand_slope(y, side)[0] is local_model's
    demand gradient at best_message(y) bit for bit (the envelope theorem,
    Milgrom and Segal, Econometrica 70(2), 2002).

    `coords` lists ki's message coordinates as (kind, link) pairs: the
    demand, q1 on each route link, q2 on each route link it shares with
    group-mates (elsewhere q2 enters no tax) and, under SBB, rho."""

    def __init__(self, instance: NetworkInstance, profile: Profile,
                 params: MechanismParams, ki: AgentId):
        read = validate_profile(instance, profile, params.variant)
        if ki not in read.T.agents:
            raise MessageShapeError(f"agent {_agent_label(ki)} is not in the instance")
        self._setup(read, params, read.T.agents.index(ki))

    def _setup(self, read: _ProfileRead, params: MechanismParams, a: int) -> None:
        """Build the evaluator of the a-th agent from read, which was made
        under params.variant."""
        T = read.T
        self.params = params
        self.ki = ki = T.agents[a]
        self.evals = 0
        self.valuation = val = read.instance.valuation(ki)
        self._value, self._deriv, self._second = val.value, val.deriv, val.second
        pairs = range(T.starts[a], T.starts[a + 1])
        route = {T.pairs[p][1] for p in pairs}
        self._r_off = min([v for l, v in enumerate(read.offers)
                           if l not in route and v != NO_BOUND], default=NO_BOUND)
        self._route = [_RouteLink(read, p) for p in pairs]
        self._rho_bar = None if read.rho_bars is None else read.rho_bars[a]
        self._scaled = (math.nan, None)  # the last demand and result of _scale
        self.coords = ([(COORD_Y, None)] + [(COORD_Q1, L.lid) for L in self._route]
                       + [(COORD_Q2, L.lid) for L in self._route if L.q1_succ is not None]
                       + ([(COORD_RHO, None)] if self._rho_bar is not None else []))

    def _scale(self, y: float) -> Tuple[float, List[Tuple[float, float]]]:
        """The realized allocation when ki demands y, summed as evaluate()
        sums it: the scale r and, per route link, ki's group peak and the
        load (sum of r*peaks), ki's slot of each link's peaks rewritten to y.
        It is the one producer of values at a demand; a repeat of the last
        demand returns the last result."""
        if y == self._scaled[0]:
            return self._scaled[1]
        r = self._r_off
        for L in self._route:
            own = L.a * y
            peak = own if own > L.peak_mates else L.peak_mates
            L.peaks[L.gpos] = peak
            offer = _offer(L.capacity, seq_sum(L.peaks), L.others_demanding + (peak > 0.0))
            if offer < r:
                r = offer
        if r == NO_BOUND:
            r = 0.0  # all-zero demand collapses to x = 0
        links = []
        for L in self._route:
            load = 0.0  # seq_sum of r * peaks, inline: every slope read and utility runs it
            for p in L.peaks:
                load += r * p
            links.append((L.peaks[L.gpos], load))
        self._scaled = (y, (r, links))
        return r, links

    def utility(self, msg: Message) -> float:
        self.evals += 1
        y = msg.y
        r, links = self._scale(y)
        x = r * y
        rho_bar = self._rho_bar
        total = 0.0
        for L, (peak, load) in zip(self._route, links):
            q1, q2 = msg.q[L.lid]
            L.q1s[L.mpos] = q1
            wk = seq_sum(L.q1s)
            L.ws[L.gpos] = wk
            wb = (seq_sum(L.ws) - wk) / L.n_rivals
            t1, t2, t3, t4, t5, t6 = _link_slots(
                self.params, L.a, y, x, r, q1, q2,
                wb if L.q1_succ is None else L.pf, L.q1_succ,
                r * peak, wk, wb, L.capacity - load,
                rho_bar, L.n_l, L.others_pay)
            total += t1 + t2 + t3 + t4 + t5 + t6
        if rho_bar is not None:
            dev = msg.rho - r
            total += self.params.zeta * (dev * dev)
        return self._value(x) - total

    def best_message(self, y: float, msg: Message) -> Message:
        """ki's best message among those that demand y.

        A fixed demand fixes r, x, m and the slack, and the tax slots then
        separate by message: slots 1 and 6 hold no quote or rho of ki, q2
        enters only slot 2 (best: the successor's first quote), rho only
        the consensus term (best: r), and q1 on each link only slots 3-5, a
        convex quadratic with curvature 2 whose minimum over q1 >= 0 is
        max(0, wb - s_mates - (eta*pf*(m_k - a*x) + xi*wb*slack) / 2).
        A q2 that enters no slot (ki alone in its group) is copied from msg."""
        r, links = self._scale(y)
        x = r * y
        q = {L.lid: (self._best_q1(L, r * peak - L.a * x, L.capacity - load),
                     msg.q[L.lid][1] if L.q1_succ is None else L.q1_succ)
             for L, (peak, load) in zip(self._route, links)}
        return Message(y, q, None if self._rho_bar is None else r)

    def _best_q1(self, L: _RouteLink, gap: float, slack: float) -> float:
        """ki's best first quote on L at reservation gap m_k - a*x and slack."""
        return max(0.0, L.wb - L.s_mates - 0.5 * (self.params.eta * L.pf * gap
                                                  + self.params.xi * L.wb * slack))

    @staticmethod
    def _peak_form(L: _RouteLink, y: float, side: int) -> Tuple[float, float, float]:
        """(dpeak, peak0, fixed): just to `side` of demand y, ki's group peak
        on L is peak0 + dpeak*y and L's peaks sum to fixed + dpeak*y. ki's
        own peak a*y sets it above the mates' peak pm, and on the right also
        at a tie within KINK_TOL (at which exact_best_response merges kinks)."""
        own = L.a * y
        above, tie = own > L.peak_mates, abs(own - L.peak_mates) <= KINK_TOL * own
        if (above or tie) if side > 0 else (above and not tie):
            return L.a, 0.0, L.rest
        return 0.0, L.peak_mates, L.rest + L.peak_mates

    def scale_slopes(self, y: float, side: int
                     ) -> Tuple[float, float, float, bool, Tuple[float, float, float]]:
        """The binding offer's scale r at demand y (the realized one to
        rounding, or to KINK_TOL at a tie; values at a demand come from
        _scale), its one-sided first and second
        derivatives in y on `side` (+1 right, -1 left), whether r jumps
        there (only at y = 0; r is then the right-hand limit), and the
        binding offer's form (c, rest, a_e): near y it is c / (rest + a_e*y').

        Just to `side` of y route link l has the form (c, base + peak0,
        dpeak) (_peak_form), the links off the route (r_off, 1, 0). Of the
        offers within KINK_TOL of the smallest, the one falling fastest
        (right) or slowest (left) binds, and r is its offer unless r jumps
        (to the realized _scale(0) at y = 0, where a link ki's group leaves
        idle or lone offers more), so r + y*r' = r*rest/(rest + a_e*y)."""
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        if side == -1 and y <= 0.0:
            raise ValueError("left slope undefined at y = 0")
        offers = [] if self._r_off == NO_BOUND else [(self._r_off, 0.0, 1.0, self._r_off, 1.0, 0.0)]
        for L in self._route:
            dpeak, peak0, _ = self._peak_form(L, y, side)
            rest = L.base + peak0
            den = rest + dpeak * y
            offer = L.capacity / den
            offers.append((offer, -dpeak * offer / den, den, L.capacity, rest, dpeak))
        r_lim = min(f[0] for f in offers)
        offer, dr, den, c, rest, a = min(
            (f for f in offers if f[0] <= r_lim * (1.0 + KINK_TOL)), key=lambda f: side * f[1])
        jumped = y == 0.0 and abs(r_lim - self._scale(0.0)[0]) > KINK_TOL * r_lim
        # den * den, not den ** 2: a float power overflows past 1.3e154
        return ((r_lim if jumped else offer), dr, 2.0 * a * a * offer / (den * den),
                jumped, (c, rest, a))

    def clip_points(self, y: float, form: Optional[tuple] = None) -> List[float]:
        """Where ki's best first quotes turn 0 if the allocation keeps its
        form just right of y, at most one per route link: one offer
        c / (rest + a_e*y) binds (scale_slopes, or `form` when the caller
        has read it) and the group peak is peak0 + dpeak*y (_peak_form), so
        the quote before its max(0, .) (_best_q1) is K + r*(u + v*y), 0
        where K*(rest + a_e*y) + c*(u + v*y) is."""
        c, rest, a_e = self.scale_slopes(y, +1)[4] if form is None else form
        eta, xi = self.params.eta, self.params.xi
        points = []
        for L in self._route:
            dpeak, peak0, fixed = self._peak_form(L, y, +1)
            k = L.wb - L.s_mates - 0.5 * xi * L.wb * L.capacity
            u = -0.5 * (eta * L.pf * peak0 - xi * L.wb * fixed)
            v = -0.5 * (eta * L.pf * (dpeak - L.a) - xi * L.wb * dpeak)
            den = k * a_e + c * v
            if den:
                points.append(-(k * rest + c * u) / den)
        return points

    def _y_row(self, y: float, side: int, q1s: Optional[List[float]],
               slopes: Optional[tuple] = None):
        """local_model's demand row without the consensus term: r, r', r'',
        whether r jumps, the binding form, the y-gradient, the yy entry and
        per route link (q1, its gradient, its y coupling), at first quotes
        q1s (route order) or, for None, at the best ones (_best_q1).
        slopes is scale_slopes(y, side) when the caller has read it.

        r, x = r*y, the reservation gap and the slack are the realized ones
        (_scale), which utility and best_message price, except where r jumps
        (y = 0): there they are the binding form's right-hand limits. Only
        the slopes come from the binding form (scale_slopes, _peak_form):
        x' = r + y*r' and x'' = 2r' + y*r'' are taken as r*rest/den and
        2r'*rest/den, so that neither is a difference that cancels far past
        the knees."""
        r, dr, d2r, jumped, form = self.scale_slopes(y, side) if slopes is None else slopes
        _, rest, a_e = form
        share = rest / (rest + a_e * y)
        dx, d2x = r * share, 2.0 * dr * share
        r, realized = (r, None) if jumped else self._scale(y)
        x = r * y
        eta, xi = self.params.eta, self.params.xi
        v1 = self._deriv(x)
        gy = v1 * dx
        hyy = self._second(x) * dx * dx + v1 * d2x
        links = []
        for j, L in enumerate(self._route):
            pf = L.pf
            dpeak, peak0, fixed = self._peak_form(L, y, side)
            peak, load = (peak0, r * fixed) if jumped else realized[j]  # a jump is at y = 0
            gap = (r * peak - L.a * x,
                   dr * peak0 + (dpeak - L.a) * dx,
                   d2r * peak0 + (dpeak - L.a) * d2x)
            slack = (L.capacity - load,
                     -(dr * fixed + dpeak * dx),
                     -(d2r * fixed + dpeak * d2x))
            q1 = self._best_q1(L, gap[0], slack[0]) if q1s is None else q1s[j]
            dw = L.s_mates + q1 - L.wb
            t4, t5 = eta * pf * (q1 - pf), xi * L.wb * dw
            gy -= L.a * pf * dx + t4 * gap[1] + t5 * slack[1]
            hyy -= L.a * pf * d2x + t4 * gap[2] + t5 * slack[2]
            links.append((q1, -(2.0 * dw + eta * pf * gap[0] + xi * L.wb * slack[0]),
                          -(eta * pf * gap[1] + xi * L.wb * slack[1])))
        return r, dr, d2r, jumped, form, gy, hyy, links

    def local_model(self, msg: Message, side: int) -> LocalModel:
        """ki's own utility at msg to second order on `side` of its demand.

        Gradient and Hessian are exact: with r', r'' from scale_slopes,
        x = r*y, the group reservation m_k = r*max(pm, a*y) and the slack
        c - r*sum(peaks) are closed forms in y on each side. The quote
        block is -2 on each q1 and q2 (slots 3 and 2) and -2*zeta on rho;
        y couples to q1 by -(eta*pf*(m_k - a*x)' + xi*wb*slack') (slots 4
        and 5) and to rho by 2*zeta*r', and the yy entry is
        V''*x'^2 + V'*x'' - sum_l [a*pf*x'' + eta*pf*(q1 - pf)*(m_k - a*x)''
        + xi*wb*(w_k - wb)*slack''] + 2*zeta*((rho - r)*r'' - r'^2).
        No other entry couples: slots 1 and 6 and every rival price hold no
        quote or rho of ki."""
        r, dr, d2r, jumped, _, gy, hyy, links = self._y_row(
            msg.y, side, [msg.q[L.lid][0] for L in self._route])
        n = len(self.coords)
        point, grad, hess, free = [msg.y], np.zeros(n), np.zeros((n, n)), np.ones(n, dtype=bool)
        for j, (q1, g1, coupling) in enumerate(links, 1):
            point.append(q1)
            grad[j], hess[0, j], hess[j, 0], hess[j, j] = g1, coupling, coupling, -2.0
            free[j] = _q1_free(q1, g1, coupling, msg.y, side)
        j = len(links) + 1
        for L in self._route:
            if L.q1_succ is not None:
                q2 = msg.q[L.lid][1]
                point.append(q2)
                grad[j] = -2.0 * (q2 - L.q1_succ)
                hess[j, j] = -2.0
                j += 1
        if self._rho_bar is not None:
            zeta, dev = self.params.zeta, msg.rho - r
            gy += 2.0 * zeta * dev * dr
            hyy += 2.0 * zeta * (dev * d2r - dr * dr)
            point.append(msg.rho)
            grad[j] = -2.0 * zeta * dev
            hess[0, j] = hess[j, 0] = 2.0 * zeta * dr
            hess[j, j] = -2.0 * zeta
        grad[0], hess[0, 0] = gy, hyy
        free[0] = not (msg.y == 0.0 and gy < 0.0)
        return LocalModel(point, grad, hess, jumped, free)

    def demand_slope(self, y: float, side: int, slopes: Optional[tuple] = None
                     ) -> Tuple[float, float, float, float, Tuple[float, float, float]]:
        """(g', g'', r, r', form) on `side` of y, g(y) being ki's utility at
        best_message(y), with the scale r (_y_row's: the realized one, or
        the right-hand limit where r jumps), its slope r' and the binding
        offer's form (scale_slopes) that they were read from; counted in
        evals. By the envelope theorem g' is local_model's demand gradient
        at the best message; g'' is the Schur complement of its free quote
        block, the yy entry plus c^2/2 for each y-q1 coupling c whose quote
        _q1_free keeps on `side` (the quotes local_model's free mask keeps
        there), so that at a clip point each side reads its own piece. The
        best rho is r, so the consensus term and its rho block cancel
        (2*zeta*r'^2 each way). slopes is scale_slopes(y, side) when the
        caller has read it."""
        self.evals += 1
        r, dr, _, _, form, gy, hyy, links = self._y_row(y, side, None, slopes)
        for q1, g1, coupling in links:
            if _q1_free(q1, g1, coupling, y, side):
                hyy += 0.5 * coupling * coupling
        return gy, hyy, r, dr, form

    def demand_kinks(self) -> Tuple[List[float], List[float]]:
        """Where ki's own demand bends the allocation, and where it saturates.

        For y > 0, route link l offers c / (B + max(pm, a*y)): pm is the
        group-mates' peak and B the other groups' peaks, plus 1 when no
        other group demands there (the lone-group offer). r is the smallest
        offer (and the offer off the route), so 1/r is the upper envelope of
        the lines (p + a*y)/c of the forms (c, p, a), swept in slope order
        (de Berg et al., Computational Geometry, ch. 11) in O(F log F).
        Returns the kinks of r and of the group peaks in y > 0 (pm/a, and
        where consecutive envelope lines cross), and per route link the
        knee B/a: x = r*y lies within a share B/(B + a*y) of its limit c/a
        on that link."""
        forms = [] if self._r_off == NO_BOUND else [(self._r_off, 1.0, 0.0)]
        kinks, knees = [], []
        for L in self._route:
            knees.append(L.base / L.a)
            forms.append((L.capacity, L.base, L.a))  # own peak a*y
            if L.peak_mates > 0.0:
                kinks.append(L.peak_mates / L.a)
                forms.append((L.capacity, L.base + L.peak_mates, 0.0))  # mates' peak

        def cross(f, g):  # where the offers of forms f and g are equal (NaN: parallel)
            (c1, p1, a1), (c2, p2, a2) = f, g
            den = c1 * a2 - c2 * a1
            return (c2 * p1 - c1 * p2) / den if den else math.nan

        hull = []  # the envelope's lines by rising slope, so their crossings rise
        for f in sorted(forms, key=lambda f: (f[2] / f[0], f[1] / f[0])):
            if hull and math.isnan(cross(hull[-1], f)):
                hull.pop()  # parallel, and f lies no lower
            while len(hull) > 1 and cross(hull[-2], f) <= cross(hull[-2], hull[-1]):
                hull.pop()
            hull.append(f)
        kinks += [y for y in map(cross, hull, hull[1:]) if 0.0 < y < math.inf]
        return kinks, knees


def _evaluators(instance: NetworkInstance, profile: Profile,
                params: MechanismParams) -> Iterator[DeviationEvaluator]:
    """Every agent's DeviationEvaluator, in agent order, from one read of
    the profile; each is built when the iteration reaches it, so an agent
    whose route crosses a one-group link raises only there."""
    read = validate_profile(instance, profile, params.variant)
    for a in range(len(read.T.agents)):
        ev = DeviationEvaluator.__new__(DeviationEvaluator)
        ev._setup(read, params, a)
        yield ev


# ---------------------------------------------------------------------------
# JSON mirrors

def message_to_dict(msg: Message) -> Dict[str, object]:
    d: Dict[str, object] = {"y": msg.y,
                            "q": {lid: list(pair) for lid, pair in sorted(msg.q.items())}}
    if msg.rho is not None:
        d["rho"] = msg.rho
    return d


def profile_to_json(profile: Profile) -> str:
    return canonical_json({ki.label: message_to_dict(profile[ki]) for ki in sorted(profile)})


def _quote(pair: object) -> Tuple[float, float]:
    """A quote pair from JSON: a list of exactly two numbers."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise InstanceFormatError(f"a quote must be a list of two numbers, got {pair!r}")
    return _number(pair[0], "quote"), _number(pair[1], "quote")


def profile_from_json(text: str, instance: NetworkInstance) -> Profile:
    """A profile of instance's agents, each keyed by its label "k.i"
    (AgentId.label); any other key raises InstanceFormatError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"profile not valid JSON: {exc}") from exc
    agents = {ki.label: ki for ki in instance.agents}
    profile: Profile = {}
    try:
        for label, entry in doc.items():
            if label not in agents:
                raise InstanceFormatError(f"profile key {label!r} is no agent label")
            ki = agents[label]
            q = {str(lid): _quote(pair) for lid, pair in entry["q"].items()}
            rho = _number(entry["rho"], "rho") if "rho" in entry else None
            profile[ki] = Message(_number(entry["y"], "demand"), q, rho)
    except InstanceFormatError:
        raise
    except Exception as exc:
        raise InstanceFormatError(f"profile document malformed: {exc}") from exc
    return profile


def outcome_to_dict(instance: NetworkInstance, out: Outcome) -> Dict[str, object]:
    def fin(v: float):
        return "inf" if v == NO_BOUND else v

    return {
        "r": fin(out.r),
        "r_per_link": {lid: fin(out.r_per_link[lid]) for lid in instance.link_ids},
        "n": {f"{k}|{lid}": out.n[(k, lid)] for (k, lid) in sorted(out.n)},
        "m": {f"{k}|{lid}": out.m[(k, lid)] for (k, lid) in sorted(out.m)},
        "x": {ki.label: out.x[ki] for ki in instance.agents},
        "w": {f"{k}|{lid}": out.w[(k, lid)] for (k, lid) in sorted(out.w)},
        "w_bar": {f"{k}|{lid}": out.w_bar[(k, lid)] for (k, lid) in sorted(out.w_bar)},
        "rho_bar": {ki.label: out.rho_bar[ki] for ki in sorted(out.rho_bar)},
        "taxes": {
            ki.label: {
                "per_link": {lid: list(terms)
                             for lid, terms in sorted(out.taxes[ki].per_link.items())},
                "zeta_term": out.taxes[ki].zeta_term,
                "total": out.taxes[ki].total,
            }
            for ki in instance.agents
        },
        "total_tax": out.total_tax,
    }


def outcome_to_json(instance: NetworkInstance, out: Outcome) -> str:
    return canonical_json(outcome_to_dict(instance, out))
