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
reads too (model._tables), and each profile is read once, with one sweep
per table (validate_profile): one over the agents and their route pairs,
which checks each message as it reads it, one over the links for the
peaks and offers (_peaks_offers, which allocate() shares) and, under SBB,
one over the links for the rebate pools. evaluate() prices that read in
one sweep over the links and one over the agents and their pairs, its
sums in fixed orders and its slots from _link_slots, and every
DeviationEvaluator is built from a read, so the two agree bit for bit.
The allocation and the outcome keep their per-link, per-slot and
per-agent values as lists in table order: each keyed field but taxes is a
read-only TableMap that pairs such a list with its table's shared key ->
position index (model._Tables), built in O(1) per call, and the library's
own readers (lemma_suite, outcome_to_dict, construct_ne) take the lists.
"""

from __future__ import annotations

import json
import math
from math import isfinite
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InstanceFormatError, MessageShapeError
from .model import (AgentId, NetworkInstance, TableMap, _Tables, _number, _tables,
                    _unique_keys, canonical_json, seq_sum)

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
    """The allocation of a demand profile. Each keyed field is a read-only
    TableMap over its table (links, slots or agents) when allocate() or
    evaluate() made it."""

    r: float
    r_per_link: Mapping[str, float]
    n: Mapping[Tuple[int, str], float]
    x: Mapping[AgentId, float]
    m: Mapping[Tuple[int, str], float]


@dataclass
class Outcome(AllocationResult):
    """evaluate()'s outcome: the allocation, the per-slot prices w and
    rival means w_bar and the per-agent rho means rho_bar (TableMaps; rho_bar
    is empty under WBB), and the taxes, a dict in agent order."""

    w: Mapping[Tuple[int, str], float]
    w_bar: Mapping[Tuple[int, str], float]
    rho_bar: Mapping[AgentId, float]
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


def _peaks_offers(T: _Tables, ay: List[float]) -> Tuple[List[float], List[float]]:
    """Per slot the peak of the weighted demands ay (alpha*y per pair), and
    per link the offer, in one sweep over the links: a group demands on a
    link when its peak is positive, and a link's peaks are totalled in
    group order. allocate() and validate_profile() both read them here."""
    slot_pairs, peaks, offers = T.slot_pairs, [0.0] * len(T.slot_pairs), []
    for c, slots in zip(T.capacity, T.link_slots):
        total, demanding = 0.0, 0
        for s in slots:
            peak = 0.0
            for p in slot_pairs[s]:
                if ay[p] > peak:
                    peak = ay[p]
            if peak > 0.0:  # an idle group's 0 adds nothing to the total
                peaks[s] = peak
                total += peak
                demanding += 1
        offers.append(_offer(c, total, demanding))
    return peaks, offers


def _allocation(T: _Tables, ys: List[float], peaks: List[float], offers: List[float]
                ) -> AllocationResult:
    """The allocation of demands ys (agent order) from their peaks and
    offers (_peaks_offers): the offers, peaks, rates and reservations are
    lists in table order, which its TableMaps wrap as they are."""
    finite = [v for v in offers if v != NO_BOUND]
    r = min(finite) if finite else 0.0  # all-zero demand collapses to x = 0
    return AllocationResult(r, TableMap(T.link_index, offers), TableMap(T.slot_index, peaks),
                            TableMap(T.agent_index, [r * y for y in ys]),
                            TableMap(T.slot_index, [r * p for p in peaks]))


def _allocate(T: _Tables, ys: List[float]) -> AllocationResult:
    """The allocation of demands ys (agent order)."""
    ay = [alpha * ys[a] for a, _, _, alpha, _, _ in T.pairs]
    return _allocation(T, ys, *_peaks_offers(T, ay))


def allocate(instance: NetworkInstance, y: Dict[AgentId, float]) -> AllocationResult:
    T = _tables(instance)
    return _allocate(T, [y[ki] for ki in T.agents])


# ---------------------------------------------------------------------------
# Taxes

def _others_sums(out: List[float], index, entries: List[float]) -> None:
    """For each i in index, set out[i] to the sum of the other entries[j],
    j in index: those before it added in order plus those after it added
    in reverse. An entry never enters its own sum, so that sum is
    independent of it bit for bit (the total minus the entry would carry a
    rounding error of the size of the entry)."""
    before = 0.0
    for i in index:
        out[i] = before
        before += entries[i]
    after = 0.0
    for i in reversed(index):
        out[i] += after
        after += entries[i]


def _rebates(T: _Tables, pay: List[float], rhos: List[float]):
    """SBB: per pair, the other agents' entries in its link's rebate pool
    (the self-quoted payments pay, alpha * q1 * y per pair, summed in
    link_pairs order), and per agent the mean of the other agents' rhos."""
    others, rho_bars = [0.0] * len(pay), [0.0] * len(rhos)
    for pairs in T.link_pairs:
        _others_sums(others, pairs, pay)
    _others_sums(rho_bars, range(len(rhos)), rhos)
    n_others = len(rhos) - 1
    return others, [total / n_others for total in rho_bars]


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


def evaluate(instance: NetworkInstance, profile: Profile, params: MechanismParams) -> Outcome:
    """Full outcome for a message profile: allocation, prices, all taxes.

    It prices the profile's read (validate_profile) in two sweeps: one
    over the links, summing w and the loads in group order for w_bar and
    the slacks, and one over the agents and their route pairs, each total
    along the route, total_tax by agent. Every per-agent, per-slot and
    per-link field but taxes is a list in table order that the outcome's
    TableMaps wrap as they are, so no keyed dict is built per call; taxes
    is a dict in agent order, each TaxBreakdown.per_link in route order."""
    return _evaluate(instance, profile, params)[1]


def _evaluate(instance: NetworkInstance, profile: Profile, params: MechanismParams
              ) -> Tuple[_ProfileRead, Outcome]:
    """evaluate(), with the read of the profile that it priced."""
    read = validate_profile(instance, profile, params.variant)
    T, ys, q1s, q2s, ws = read.T, read.ys, read.q1s, read.q2s, read.ws
    if T.lone is not None:
        _rival_count(T, T.lone)  # raises: a lone group has no rival mean
    alloc = _allocation(T, ys, read.peaks, read.offers)
    r, xs, ms = alloc.r, alloc.x.column, alloc.m.column
    wbs, slack = [0.0] * len(ws), []
    for slots, n_rivals, c in zip(T.link_slots, T.rivals, T.capacity):
        total = load = 0.0  # seq_sum's order, inline
        for s in slots:
            total += ws[s]
            load += ms[s]
        for s in slots:
            wbs[s] = (total - ws[s]) / n_rivals
        slack.append(c - load)
    sbb = params.variant == VARIANT_SBB
    rho_bars = read.rho_bars if sbb else [None] * len(ys)
    n_on_link = T.n_on_link
    pairs = zip(T.pairs, q1s, q2s, read.others)
    taxes = {}
    total_tax = 0.0
    for ki, route, y, x, rho, rho_bar in zip(T.agents, T.routes, ys, xs, read.rhos, rho_bars):
        per_link = {}
        total = 0.0
        # zip takes the route link first, so it stops at the agent's last pair
        for lid, ((_, l, s, alpha, pred, succ), q1, q2, pay) in zip(route, pairs):
            wb = wbs[s]
            per_link[lid] = t1, t2, t3, t4, t5, t6 = _link_slots(
                params, alpha, y, x, r, q1, q2, wb if succ < 0 else q2s[pred],
                None if succ < 0 else q1s[succ], ms[s], ws[s], wb, slack[l], rho_bar,
                n_on_link[l], pay)
            total += t1 + t2 + t3 + t4 + t5 + t6
        zeta_term = 0.0
        if sbb:
            dev = rho - r
            zeta_term = params.zeta * (dev * dev)
            total += zeta_term
        taxes[ki] = TaxBreakdown(per_link, zeta_term, total)
        total_tax += total
    return read, Outcome(**vars(alloc), w=TableMap(T.slot_index, ws),
                         w_bar=TableMap(T.slot_index, wbs),
                         rho_bar=TableMap(T.agent_index, rho_bars) if sbb else TableMap({}, []),
                         taxes=taxes, total_tax=total_tax)


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
    per slot the first-quote sum (all from the agent pass), the peak and
    per link the offer (from the link sweep, _peaks_offers) and, under
    SBB, per pair the other agents' entries in its link's rebate pool and
    per agent the others' rho mean (None under WBB; _rebates). The
    evaluators copy what they rewrite, so the read is never written after
    it is made."""


def _agent_label(ki) -> str:
    """ki's label, or its repr if it is no AgentId."""
    return ki.label if isinstance(ki, AgentId) else repr(ki)


def validate_profile(instance: NetworkInstance, profile: Profile, variant: str) -> _ProfileRead:
    """The read of profile under variant (_ProfileRead), one sweep per
    table: every entry point that takes a profile reads it here.

    One pass over the agents, each along its route pairs, checks each
    message and appends its demand, rho, quotes, weighted demand alpha*y
    and, under SBB, self-quoted payment alpha*q1*y, and adds q1 to its
    slot's quote sum: agents run in (group, member) order, so each slot
    sums in member order. Then one sweep over the links gives the peaks
    and offers (_peaks_offers) and, under SBB, one more the rebate pools
    (_rebates). MessageShapeError names the first fault in agent order
    (missing agents first, then entries for agents the instance lacks);
    within a message, the keys, the demand, the quotes (the first bad pair
    in the quote dict's own order, _quote_fault) and then rho."""
    if variant not in VARIANTS:
        raise MessageShapeError(f"unknown variant {variant!r}")
    T = _tables(instance)
    missing = [ki for ki in T.agents if ki not in profile]
    if missing:
        raise MessageShapeError(
            "profile missing agents: " + ", ".join(ki.label for ki in missing))
    if len(profile) != len(T.agents):  # every agent is in it, so something else is too
        raise MessageShapeError("profile holds agents not in the instance: " + ", ".join(
            _agent_label(k) for k in profile if k not in T.agent_index))
    sbb = variant == VARIANT_SBB
    ys, rhos, q1s, q2s, ay, pay = [], [], [], [], [], []
    ws = [0.0] * len(T.slot_pairs)
    pairs = iter(T.pairs)
    for ki, route, want, solo in zip(T.agents, T.routes, T.route_keys, T.solo_links):
        msg = profile[ki]
        q, y, rho = msg.q, msg.y, msg.rho
        if q.keys() != want:
            raise MessageShapeError(
                f"agent {ki.label}: quotes keyed by {sorted(q)}, route is {sorted(want)}")
        if not (y >= 0.0 and isfinite(y)):
            raise MessageShapeError(f"agent {ki.label}: demand {y} invalid")
        # zip takes the route link first, so it stops at the agent's last pair
        for lid, (_, _, s, alpha, _, _) in zip(route, pairs):
            pair = q[lid]
            if len(pair) != 2:
                raise _quote_fault(ki, q)
            q1, q2 = pair[0], pair[1]
            if not (q1 >= 0.0 and isfinite(q1) and q2 >= 0.0 and isfinite(q2)):
                raise _quote_fault(ki, q)
            q1s.append(q1)
            q2s.append(q2)
            ay.append(alpha * y)
            ws[s] += q1  # agents run in (group, member) order: member order per slot
            if sbb:
                pay.append(alpha * q1 * y)
        if sbb:
            if rho is None or not (rho >= 0.0 and isfinite(rho)):
                raise MessageShapeError(f"agent {ki.label}: SBB requires rho >= 0")
            if solo is not None:
                raise MessageShapeError(
                    f"link {solo} carries a single agent, SBB rebate undefined")
        elif rho is not None:
            raise MessageShapeError(f"agent {ki.label}: rho present under WBB")
        ys.append(y)
        rhos.append(rho)
    others, rho_bars = _rebates(T, pay, rhos) if sbb else ([0.0] * len(q1s), None)
    return _ProfileRead(instance, T, ys, rhos, q1s, q2s, ay, *_peaks_offers(T, ay), ws,
                        others, rho_bars)


def _quote_fault(ki: AgentId, q: Dict[str, Tuple[float, float]]) -> MessageShapeError:
    """The error naming the first bad pair of ki's quotes q, which hold one,
    in q's own order: the read checks the pairs in route order, and names
    a fault in the order of the message it was given."""
    return next(MessageShapeError(f"agent {ki.label}: bad quote pair on {lid}")
                for lid, pair in q.items()
                if len(pair) != 2 or not (pair[0] >= 0.0 and isfinite(pair[0])
                                          and pair[1] >= 0.0 and isfinite(pair[1])))


class _RouteLink:
    """What the other agents fix on one link of the deviator's route.

    The lists hold one entry per group (peaks, ws) or per group member
    (q1s), in the order evaluate() sums them; the pricing layer of
    DeviationEvaluator rewrites the deviator's slot (gpos, mpos) in them,
    and every value at a demand (r, the group peak, the load) is their
    realized sum (_scale). The model layer reads no list: its offer form
    is c / (base + max(peak_mates, a*y)), base being rest, the other
    groups' peak total, plus 1 when no other group demands there. The
    prices are the fixed fields that follow: s_mates is the sum of the
    group-mates' first quotes, wb the rival groups' mean price (all sums
    less the own, as utility() prices), pf the price factor (the
    predecessor's second quote, or wb when ki is alone in its group, where
    utility() reads its live wb) and others_pay the other agents' entries
    in the SBB rebate pool."""

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


def _q1_free(q1: float, grad: float, coupling: float, y: float, side: int) -> bool:
    """Whether ki's best first quote on a route link is positive KINK_TOL*y
    to `side` of demand y, from a quote q1, its gradient there and its y
    coupling -f1*x' (local_model): the best quote is max(0, E) with
    E = q1 + grad/2 and E' = coupling/2 (_best_q1). 2*q1 + grad is 2k - F,
    whose root in the rate the best response splits its pieces at
    (rate_model), so the quotes local_model leaves out of LocalModel.free
    are those the best response clips."""
    return 2.0 * q1 + grad + side * KINK_TOL * y * coupling > 0.0


class LocalModel(NamedTuple):
    """ki's own utility to second order on one side of its demand, over
    DeviationEvaluator.coords: the coordinate values, the exact one-sided
    gradient and the one-sided Hessian in the rate (the chain rule of the
    piece form that rate_model reads, less U_x*x'' in the demand entry:
    local_model), whether r jumps there (then both are those of the
    one-sided limit), and per coordinate whether it is free on that
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
    profile stays fixed, with a count of utility and rate_model calls in
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
    best_message and local_model all take r, x, the reservation gaps and
    the slacks from it. The model layer (_rate_form down to
    demand_kinks) reads the snapshot alone. Route link l offers
    c / (base + max(pm, a*y)), so 1/r(y) is the upper envelope of a few
    lines in y, and between two kinks one offer binds. There the rate,
    the reservations and the slacks are affine in one another, and
    _rate_form is the one producer of that piece form: rate_model reads
    from it ki's payoff at the best message on a kink piece in closed form
    in the rate, which the best response maximizes, and local_model its
    chain rule, the one-sided gradient in ki's message and the Hessian in
    the rate, which the curvature check reads. jumps_at_zero tells where r
    jumps (only ever at y = 0).

    `coords` lists ki's message coordinates as (kind, link) pairs: the
    demand, q1 on each route link, q2 on each route link it shares with
    group-mates (elsewhere q2 enters no tax) and, under SBB, rho."""

    def __init__(self, instance: NetworkInstance, profile: Profile,
                 params: MechanismParams, ki: AgentId):
        read = validate_profile(instance, profile, params.variant)
        a = read.T.agent_index.get(ki)
        if a is None:
            raise MessageShapeError(f"agent {_agent_label(ki)} is not in the instance")
        self._setup(read, params, a)

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
            load = 0.0  # seq_sum of r * peaks, inline: every local model and utility runs it
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

    def _rate_form(self, y: float, side: int) -> Tuple[Tuple[float, float, float],
                                                       List[Tuple[float, float, float, float]],
                                                       bool]:
        """The piece form just to `side` (+1 right, -1 left) of demand y, in
        the rate x = r*y, from the snapshot alone: the binding offer's form
        (c, rest, a_e), in which r = c/(rest + a_e*y) = (c - a_e*x)/rest,
        per route link (peak0, fixed, g1, s1), and whether y meets a tie,
        the one place where the two sides' forms may differ.

        ki's group peak on a route link is peak0 + dpeak*y and the link's
        peaks sum to fixed + dpeak*y, dpeak being a where ki's own peak a*y
        sets the group peak (above the mates' peak pm, and on the right
        also at a tie within KINK_TOL, at which exact_best_response merges
        kinks), else 0. So the reservation gap r*peak - a*x has the slope
        g1 = dpeak - a - a_e*peak0/rest in x and the slack
        c_l - r*(fixed + dpeak*y) the slope s1 = a_e*fixed/rest - dpeak.
        The link offers c_l / (base + peak0 + dpeak*y), in the form
        (c_l, base + peak0, dpeak), and the links off the route have the
        form (r_off, 1, 0); of the offers within KINK_TOL of the smallest,
        the one falling fastest (right) or slowest (left) binds. So the tie is
        an own peak within KINK_TOL of the mates' peak on some route link, or
        more than one offer within KINK_TOL of the smallest; without one
        both sides have the same form."""
        forms = [] if self._r_off == NO_BOUND else [(self._r_off, 0.0, self._r_off, 1.0, 0.0)]
        peaks, tied = [], False
        for L in self._route:
            own = L.a * y
            above, tie = own > L.peak_mates, abs(own - L.peak_mates) <= KINK_TOL * own
            tied = tied or tie
            if (above or tie) if side > 0 else (above and not tie):
                dpeak, peak0, fixed = L.a, 0.0, L.rest
            else:
                dpeak, peak0, fixed = 0.0, L.peak_mates, L.rest + L.peak_mates
            peaks.append((dpeak, peak0, fixed))
            rest = L.base + peak0
            den = rest + dpeak * y
            offer = L.capacity / den
            forms.append((offer, -dpeak * offer / den, L.capacity, rest, dpeak))
        r_lim = min(f[0] for f in forms)
        binding = [f for f in forms if f[0] <= r_lim * (1.0 + KINK_TOL)]
        *_, c, rest, a_e = min(binding, key=lambda f: side * f[1])
        links = [(peak0, fixed, dpeak - L.a - a_e * peak0 / rest, a_e * fixed / rest - dpeak)
                 for L, (dpeak, peak0, fixed) in zip(self._route, peaks)]
        return (c, rest, a_e), links, tied or len(binding) > 1

    def jumps_at_zero(self) -> bool:
        """Whether r jumps at y = 0: the binding form's right-hand limit
        c/rest there and the realized scale at y = 0 differ by more than
        KINK_TOL (a link that ki's group leaves idle or lone offers more at
        y = 0). At y = 0 ki's group peaks at the mates' peak, so route link
        l offers _offer(c_l, rest + peak_mates, ...) from the snapshot; when
        every link is idle the realized r is 0 and the smallest offer
        NO_BOUND, and either differs from the finite, positive limit."""
        c, rest, _ = self._rate_form(0.0, +1)[0]
        r_lim = c / rest
        r_0 = min([self._r_off] + [_offer(L.capacity, L.rest + L.peak_mates,
                                          L.others_demanding + (L.peak_mates > 0.0))
                                   for L in self._route])
        return abs(r_lim - r_0) > KINK_TOL * r_lim

    def rate_model(self, y: float) -> Tuple[Tuple[float, float, float],
                                            List[Tuple[float, float, float, float]]]:
        """ki's payoff at best_message on the kink piece right of demand y,
        in the rate x = r*y, from the piece form alone; counted in evals.

        Returns the binding offer's form (c, rest, a_e) (_rate_form), and
        per route link (k, f0, f1, lin). The reservation gap
        r*peak0 + (dpeak - a)*x = c*peak0/rest + g1*x and the slack
        cap - c*fixed/rest + s1*x are affine in x, and so is
        F = eta*pf*gap + xi*wb*slack = f0 + f1*x. The best first quote is
        max(0, k - F/2), k = wb - s_mates (_best_q1), so the quote is free
        where k - F/2 > 0 and turns 0 at x = (2k - f0)/f1. At the best
        message the link's taxes are lin*x + const, lin = a*pf +
        eta*pf*(k - pf)*g1, plus -F^2/4 where the quote is free and
        k^2 - k*F where it is clipped: the best q2 and rho zero slot 2 and
        the consensus term, and slot 6 holds no message of ki."""
        self.evals += 1
        (c, rest, a_e), form, _ = self._rate_form(y, +1)
        eta, xi = self.params.eta, self.params.xi
        links = []
        for L, (peak0, fixed, g1, s1) in zip(self._route, form):
            f0 = eta * L.pf * (c * peak0 / rest) + xi * L.wb * (L.capacity - c * fixed / rest)
            k = L.wb - L.s_mates
            links.append((k, f0, eta * L.pf * g1 + xi * L.wb * s1,
                          L.a * L.pf + eta * L.pf * (k - L.pf) * g1))
        return (c, rest, a_e), links

    def local_model(self, msg: Message, side: int) -> LocalModel:
        """ki's own utility at msg to second order on `side` (+1 right, -1
        left) of its demand.

        Both are the chain rule of the piece form (_rate_form), in which r,
        the reservation gaps and the slacks are affine in x = r*y:
        r_x = -a_e/rest, and x' = r*rest/den with den = rest + a_e*y (no
        difference that cancels far past the knees). In x,
        U_x = V'(x) - sum_l [a*pf + eta*pf*(q1 - pf)*g1 + xi*wb*(w_k - wb)*s1]
        + 2*zeta*(rho - r)*r_x and U_xx = V''(x) - 2*zeta*r_x^2, so the
        demand gradient is U_x*x' and the yy entry U_xx*x'^2. The quote
        block is -2 on each q1 and q2 (slots 3 and 2) and -2*zeta on rho; y
        couples to q1 by -(eta*pf*g1 + xi*wb*s1)*x' = -f1*x' (slots 4 and 5,
        rate_model's f1) and to rho by 2*zeta*r_x*x'. No other entry
        couples: slots 1 and 6 and every rival price hold no quote or rho of
        ki.

        So the Hessian is J^T*H_x*J, H_x being the Hessian in (x, q, rho)
        and J = diag(x', 1, ..., 1) with x' > 0: by Sylvester's law of
        inertia it has the eigenvalue signs of H_x. It leaves out the
        exact Hessian's U_x*x'' in the yy entry, which is 0 at a stationary
        demand. So the rounding left in U_x is not read as curvature: at a
        saturated agent U_x*x'' alone can exceed the curvature check's
        rounding bound.

        r, x, the reservation gaps and the slacks are the realized ones
        (_scale), which utility prices, except where r jumps (y = 0,
        jumps_at_zero): there they are the piece form's right-hand limits."""
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        if side == -1 and msg.y <= 0.0:
            raise ValueError("left slope undefined at y = 0")
        return self._local_model(msg, side, self._rate_form(msg.y, side))

    def local_models(self, msg: Message) -> List[LocalModel]:
        """local_model at msg on the right and, at y > 0, on the left.

        The left model is read only where the piece form has a tie
        (_rate_form). Elsewhere both sides share the piece form, so the left
        model is the right one with each first quote's clip test (_q1_free)
        re-read at side -1: the same Hessian, maybe another free mask."""
        y = msg.y
        rate_form = self._rate_form(y, +1)
        right = self._local_model(msg, +1, rate_form)
        if y <= 0.0:
            return [right]
        if rate_form[2]:
            return [right, self.local_model(msg, -1)]
        n = len(self._route) + 1
        grad, coupling, free = right.grad.tolist(), right.hess[0].tolist(), right.free.copy()
        free[1:n] = [_q1_free(q1, g, h, y, -1)
                     for q1, g, h in zip(right.point[1:n], grad[1:n], coupling[1:n])]
        return [right, right._replace(free=free)]

    def _local_model(self, msg: Message, side: int, rate_form: tuple) -> LocalModel:
        """local_model on `side` from _rate_form(msg.y, side)."""
        y = msg.y
        (c, rest, a_e), form, _ = rate_form
        den = rest + a_e * y
        r_x = -a_e / rest
        dx = c / den * (rest / den)
        jumped = y == 0.0 and self.jumps_at_zero()
        r, realized = (c / den, None) if jumped else self._scale(y)
        x = r * y
        eta, xi = self.params.eta, self.params.xi
        ux = self._deriv(x)
        n = len(self.coords)
        point, grad, hess, free = [y], np.zeros(n), np.zeros((n, n)), np.ones(n, dtype=bool)
        for j, (L, (peak0, fixed, g1, s1)) in enumerate(zip(self._route, form), 1):
            pf = L.pf
            peak, load = (peak0, r * fixed) if jumped else realized[j - 1]  # a jump is at y = 0
            q1 = msg.q[L.lid][0]
            dw = L.s_mates + q1 - L.wb
            ux -= L.a * pf + eta * pf * (q1 - pf) * g1 + xi * L.wb * dw * s1
            grad_q1 = -(2.0 * dw + eta * pf * (r * peak - L.a * x)
                        + xi * L.wb * (L.capacity - load))
            coupling = -(eta * pf * g1 + xi * L.wb * s1) * dx
            point.append(q1)
            grad[j], hess[0, j], hess[j, 0], hess[j, j] = grad_q1, coupling, coupling, -2.0
            free[j] = _q1_free(q1, grad_q1, coupling, y, side)
        j = len(self._route) + 1
        for L in self._route:
            if L.q1_succ is not None:
                q2 = msg.q[L.lid][1]
                point.append(q2)
                grad[j] = -2.0 * (q2 - L.q1_succ)
                hess[j, j] = -2.0
                j += 1
        uxx = self._second(x)
        if self._rho_bar is not None:
            zeta, dev = self.params.zeta, msg.rho - r
            ux += 2.0 * zeta * dev * r_x
            uxx -= 2.0 * zeta * r_x * r_x
            point.append(msg.rho)
            grad[j] = -2.0 * zeta * dev
            hess[0, j] = hess[j, 0] = 2.0 * zeta * r_x * dx
            hess[j, j] = -2.0 * zeta
        grad[0], hess[0, 0] = ux * dx, uxx * dx * dx
        free[0] = not (y == 0.0 and grad[0] < 0.0)
        return LocalModel(point, grad, hess, jumped, free)

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

        # The envelope's lines by rising slope, so their crossings rise. A
        # line parallel to the last one in the hull lies no lower (the sort
        # breaks ties by intercept): deeper in the hull the pop below drops
        # the lower one, and left first it adds only a NaN crossing, which
        # the 0 < y < inf filter drops.
        hull = []
        for f in sorted(forms, key=lambda f: (f[2] / f[0], f[1] / f[0])):
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
    """outcome.json's document for evaluate()'s out: each TableMap's column
    labelled with its table's labels (canonical_json sorts the keys)."""
    T = _tables(instance)

    def fin(v: float):
        return "inf" if v == NO_BOUND else v

    return {
        "r": fin(out.r),
        "r_per_link": dict(zip(T.link_ids, map(fin, out.r_per_link.column))),
        "n": dict(zip(T.slot_labels, out.n.column)),
        "m": dict(zip(T.slot_labels, out.m.column)),
        "x": dict(zip(T.agent_labels, out.x.column)),
        "w": dict(zip(T.slot_labels, out.w.column)),
        "w_bar": dict(zip(T.slot_labels, out.w_bar.column)),
        "rho_bar": dict(zip(T.agent_labels, out.rho_bar.column)),
        "taxes": {
            label: {"per_link": {lid: list(terms) for lid, terms in tax.per_link.items()},
                    "zeta_term": tax.zeta_term, "total": tax.total}
            for label, tax in zip(T.agent_labels, map(out.taxes.__getitem__, T.agents))
        },
        "total_tax": out.total_tax,
    }


def outcome_to_json(instance: NetworkInstance, out: Outcome) -> str:
    return canonical_json(outcome_to_dict(instance, out))
