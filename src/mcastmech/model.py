"""Data model for multi-rate multicast rate allocation.

Agents are grouped by the content they request. Each agent has a fixed route
(a set of links) with a positive quality weight per link, and a strictly
concave valuation of its own rate. A link carries only the largest weighted
rate of each group crossing it, so per-link group membership and a fixed
within-group member ordering are derived once at construction time and
reused by the solver, the mechanism maps, and the equilibrium engine.

Conventions used across the package:
  * groups and members are 1-based integers, links are string ids,
  * an agent is the pair (group, member), printed as "k.i",
  * weights: alpha[(agent, link)] > 0 scales the agent's rate on that link.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .errors import InstanceFormatError, ValidationFailure

LOG_SAT = "log_sat"
EXP_SAT = "exp_sat"
VALUATION_FAMILIES = (LOG_SAT, EXP_SAT)

#: A rate at or below RATE_ATOL times the largest capacity on its agent's
#: route counts as zero (_Tables.zero_rate): in the sharing count, the
#: solver's stationarity block, the replay and the lemmas.
RATE_ATOL = 1e-9

_EPS = float(np.finfo(float).eps)


class AgentId(NamedTuple):
    group: int
    member: int

    @property
    def label(self) -> str:
        return f"{self.group}.{self.member}"


@dataclass(frozen=True)
class Link:
    id: str
    capacity: float


@dataclass(frozen=True)
class Valuation:
    """Saturating concave valuation of an agent's own rate.

    log_sat: a*ln(1 + b*x).  exp_sat: a*(1 - exp(-b*x)).
    Both are strictly increasing and strictly concave on x >= 0 with
    v(0) = 0 and finite marginal value a*b at zero.
    """

    family: str
    a: float
    b: float

    def value(self, x: float) -> float:
        if self.family == LOG_SAT:
            return self.a * math.log1p(self.b * x)
        return self.a * -math.expm1(-self.b * x)

    def deriv(self, x: float) -> float:
        if self.family == LOG_SAT:
            return self.a * self.b / (1.0 + self.b * x)
        return self.a * self.b * math.exp(-self.b * x)

    def second(self, x: float) -> float:
        if self.family == LOG_SAT:
            return -self.a * self.b * self.b / (1.0 + self.b * x) ** 2
        return -self.a * self.b * self.b * math.exp(-self.b * x)

    def second_terms(self) -> Tuple[float, float]:
        """(k_b, k_a) with v'' = -v' * (k_b + v' / k_a): (0, a) for log_sat,
        (b, inf) for exp_sat."""
        return (0.0, self.a) if self.family == LOG_SAT else (self.b, math.inf)

    def turn(self, A: float) -> float:
        """Where v + A*x^2 turns from concave to convex, v''(x) = -2A (inf if A <= 0)."""
        if A <= 0.0:
            return math.inf
        if self.family == LOG_SAT:  # a*b^2 / (1 + b*x)^2 = 2A
            return math.sqrt(self.a / (2.0 * A)) - 1.0 / self.b
        return math.log(self.a * self.b * self.b / (2.0 * A)) / self.b  # a*b^2 * exp(-b*x) = 2A

    def crest(self, A: float, B: float, lo: float, hi: float) -> float:
        """The root of h' = v' + 2A*x + B in [lo, hi]: h'(lo) > 0 > h'(hi), h concave."""
        k, b = self.a, self.b
        if self.family == LOG_SAT:  # (1 + b*x) * h'(x) = p2*x^2 + p1*x + p0 falls through the root
            p2, p1, p0 = 2.0 * A * b, 2.0 * A + B * b, B + k * b
            d = math.sqrt(max(p1 * p1 - 4.0 * p2 * p0, 0.0))
            # the root (-p1 - d) / (2*p2), where p' = -d, in a form free of cancellation
            return min(max(-0.5 * (p1 + d) / p2 if p1 >= 0.0 else 2.0 * p0 / (d - p1), lo), hi)
        x = lo  # h' is convex and falls here: Newton steps from lo rise to the root
        while True:
            e = k * b * math.exp(-b * x)
            fall = e * b - 2.0 * A  # -h''(x)
            step = (e + 2.0 * A * x + B) / fall if fall > 0.0 else 0.0
            if not step > _EPS * x:
                return min(x, hi)
            x += step


@dataclass(frozen=True)
class Route:
    """An agent's fixed path plus its per-link quality weights."""

    agent: AgentId
    weights: Tuple[Tuple[str, float], ...]  # ((link_id, alpha), ...) sorted by link


@dataclass
class ValidationReport:
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append((code, message))


class NetworkInstance:
    """Immutable-by-convention bundle of links, routes, and valuations.

    All per-link membership structure is precomputed here: callers must not
    mutate links/routes/valuations after construction.
    """

    def __init__(self, links: List[Link], routes: List[Route],
                 valuations: Dict[AgentId, Valuation]):
        self.links: Tuple[Link, ...] = tuple(sorted(links, key=lambda l: l.id))
        self.routes: Tuple[Route, ...] = tuple(sorted(routes, key=lambda r: r.agent))
        self.valuations: Dict[AgentId, Valuation] = dict(valuations)

        if len({l.id for l in self.links}) != len(self.links):
            raise InstanceFormatError("duplicate link id")
        seen = set()
        for r in self.routes:
            if r.agent in seen:
                raise InstanceFormatError(f"duplicate agent {r.agent.label}")
            seen.add(r.agent)
            if not r.weights:
                raise InstanceFormatError(f"agent {r.agent.label} has empty route")
        if set(valuations) != seen:
            raise InstanceFormatError("valuations must cover exactly the routed agents")

        self.capacity: Dict[str, float] = {l.id: l.capacity for l in self.links}
        self.link_ids: Tuple[str, ...] = tuple(l.id for l in self.links)
        self.agents: Tuple[AgentId, ...] = tuple(r.agent for r in self.routes)
        self.links_of: Dict[AgentId, Tuple[str, ...]] = {}
        self.alpha: Dict[Tuple[AgentId, str], float] = {}
        for r in self.routes:
            names = []
            for lid, a in r.weights:
                if lid not in self.capacity:
                    raise InstanceFormatError(
                        f"agent {r.agent.label} routed over unknown link {lid!r}")
                names.append(lid)
                self.alpha[(r.agent, lid)] = a
            if len(set(names)) != len(names):
                raise InstanceFormatError(
                    f"agent {r.agent.label} lists some link twice")
            self.links_of[r.agent] = tuple(sorted(names))

        members: Dict[Tuple[int, str], List[int]] = {}
        for ki in self.agents:
            for lid in self.links_of[ki]:
                members.setdefault((ki.group, lid), []).append(ki.member)
        # The one slot order: (group, link) slots link by link, groups
        # ascending. The solver's m, the compiled tables (_tables) and every
        # per-slot list and TableMap of the mechanism run in it.
        self.members_on_link: Dict[Tuple[int, str], Tuple[int, ...]] = {
            key: tuple(sorted(members[key]))
            for key in sorted(members, key=lambda key: (key[1], key[0]))}
        self.groups_on_link: Dict[str, Tuple[int, ...]] = dict.fromkeys(self.link_ids, ())
        for k, lid in self.members_on_link:
            self.groups_on_link[lid] += (k,)

    def valuation(self, ki: AgentId) -> Valuation:
        return self.valuations[ki]


class _Tables:
    """An instance compiled into flat index lists, built on first use and
    kept with it (_tables); the solver and the mechanism both read it.

    A slot is a (group, link) pair in members_on_link order (link by
    link, groups ascending), a pair an (agent, route link) pair, agent by
    agent along each sorted route. Per pair: its agent, link, slot, weight
    and group predecessor's and successor's pairs (-1 when alone in its
    group there), and its slot's place among its link's slots and its own
    among the slot's members. Per slot: its link and its members' pairs.
    Per link: its slots in group order, its agents' pairs, capacity and
    rivals. Per agent: its route, its slots along the route and its
    zero-rate threshold, RATE_ATOL times the largest capacity on the route
    (a rate at or below it counts as 0 in the sharing count, the solver's
    stationarity, the replay and the lemmas). The labels solution.json
    keys by: "k.i" per agent, "k|lid" per slot and "k.i|lid" per pair.
    Per table of agents, slots and links, one key -> position index
    (agent_index, slot_index, link_index), which every TableMap over that
    table shares."""

    def __init__(self, instance: NetworkInstance):
        self.agents = instance.agents
        self.link_ids = instance.link_ids
        self.routes = [instance.links_of[ki] for ki in self.agents]
        self.route_keys = [frozenset(route) for route in self.routes]
        self.slot_keys = list(instance.members_on_link)
        self.pair_keys = [(ki, lid) for ki, route in zip(self.agents, self.routes)
                          for lid in route]
        self.starts = [0, *accumulate(len(route) for route in self.routes)]
        self.agent_index = {ki: a for a, ki in enumerate(self.agents)}
        self.link_index = {lid: l for l, lid in enumerate(self.link_ids)}
        self.slot_index = {key: s for s, key in enumerate(self.slot_keys)}
        self.slot_link = [self.link_index[lid] for _, lid in self.slot_keys]
        self.link_slots = [[] for _ in self.link_ids]
        for s, l in enumerate(self.slot_link):
            self.link_slots[l].append(s)
        # Agents run in (group, member) order, so each slot gathers its pairs in member order.
        rows, self.slot_pairs, self.agent_slots = [], [[] for _ in self.slot_keys], []
        for a, (ki, route) in enumerate(zip(self.agents, self.routes)):
            self.agent_slots.append([self.slot_index[(ki.group, lid)] for lid in route])
            for lid, s in zip(route, self.agent_slots[a]):
                self.slot_pairs[s].append(len(rows))
                rows.append([a, self.link_index[lid], s, instance.alpha[(ki, lid)], -1, -1])
        self.places = [(0, 0)] * len(rows)
        for slots in self.link_slots:
            for g, s in enumerate(slots):
                members = self.slot_pairs[s]
                for i, p in enumerate(members):
                    self.places[p] = (g, i)
                    if len(members) > 1:  # cyclic neighbours within the group on the link
                        rows[p][4], rows[p][5] = members[i - 1], members[(i + 1) % len(members)]
        self.pairs = [tuple(row) for row in rows]
        self.link_pairs = [[p for s in slots for p in self.slot_pairs[s]]
                           for slots in self.link_slots]
        self.n_on_link = [len(pairs) for pairs in self.link_pairs]
        self.capacity = [instance.capacity[lid] for lid in self.link_ids]
        self.rivals = [len(slots) - 1 for slots in self.link_slots]
        self.lone = next((l for l, n in enumerate(self.rivals) if n < 1), None)
        # per agent, the first route link no other agent crosses (SBB rejects it)
        self.solo_links = [next((lid for lid in route
                                 if self.n_on_link[self.link_index[lid]] < 2), None)
                           for route in self.routes]
        self.zero_rate = [RATE_ATOL * max(instance.capacity[lid] for lid in route)
                          for route in self.routes]
        self.agent_labels = [ki.label for ki in self.agents]
        self.slot_labels = [f"{k}|{lid}" for k, lid in self.slot_keys]
        self.pair_labels = [f"{self.agent_labels[a]}|{lid}" for a, route in enumerate(self.routes)
                            for lid in route]


class TableMap(Mapping):
    """A read-only mapping over one table of _Tables: a list of values in
    table order (`column`) and the table's shared key -> position index.
    It wraps both as they are, so it is built in O(1); it iterates in table
    order, compares equal to dict(zip(index, column)) and has that dict's
    repr. Item assignment raises TypeError, as on any Mapping; readers that
    take the column must not write it either."""

    __slots__ = ("index", "column")

    def __init__(self, index: Dict[Hashable, int], column: list):
        self.index, self.column = index, column

    def __getitem__(self, key):
        return self.column[self.index[key]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.column)

    def __contains__(self, key) -> bool:
        return key in self.index

    def __repr__(self) -> str:
        return repr(dict(zip(self.index, self.column)))


def _tables(instance: NetworkInstance) -> _Tables:
    if not hasattr(instance, "_compiled"):
        instance._compiled = _Tables(instance)
    return instance._compiled


def validate(instance: NetworkInstance) -> ValidationReport:
    """Check the soft assumptions: valuation params, positivity, link sharing.

    Structural consistency (routes reference known links, unique agents) is
    enforced at construction; this reports everything an otherwise well-formed
    instance can still get wrong.
    """
    report = ValidationReport()
    for ki, val in sorted(instance.valuations.items()):
        if val.family not in VALUATION_FAMILIES:
            report.add("A1", f"agent {ki.label}: unknown valuation family {val.family!r}")
        if not (val.a > 0.0 and math.isfinite(val.a)):
            report.add("A1", f"agent {ki.label}: valuation scale a={val.a} not positive")
        if not (val.b > 0.0 and math.isfinite(val.b)):
            report.add("A1", f"agent {ki.label}: valuation rate b={val.b} not positive")
    for link in instance.links:
        if not (link.capacity > 0.0 and math.isfinite(link.capacity)):
            report.add("positivity", f"link {link.id}: capacity {link.capacity} not positive")
    for (ki, lid), a in sorted(instance.alpha.items()):
        if not (a > 0.0 and math.isfinite(a)):
            report.add("positivity", f"agent {ki.label} on {lid}: weight {a} not positive")
    for lid, rivals in zip(instance.link_ids, _tables(instance).rivals):
        if rivals < 1:
            report.add("A3", f"link {lid}: only {rivals + 1} group(s) cross it")
    return report


def require_valid(instance: NetworkInstance) -> None:
    report = validate(instance)
    if not report.ok:
        raise ValidationFailure(
            "; ".join(f"[{c}] {m}" for c, m in report.violations),
            violations=report.violations)


def seq_sum(values) -> float:
    """Left-to-right float sum from 0.0. Builtin sum() compensates float sums
    from Python 3.12 on, so its last bits would depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def welfare(instance: NetworkInstance, x: Dict[AgentId, float]) -> float:
    return seq_sum(instance.valuation(ki).value(x[ki]) for ki in instance.agents)


def constraint_violation(instance: NetworkInstance, x: Dict[AgentId, float],
                         m: Dict[Tuple[int, str], float]) -> float:
    """Max violation of nonnegativity, capacity, and per-member bounding.

    Zero (or a few ulps) means the pair (x, m) is feasible for the shared
    allocation problem. A NaN or infinite rate or bound reads as infinite.
    """
    T = _tables(instance)
    xs, ms = [x[ki] for ki in T.agents], [m[key] for key in T.slot_keys]
    terms = [-v for v in xs]
    for slots, c in zip(T.link_slots, T.capacity):
        terms.append(seq_sum(ms[s] for s in slots) - c)
        terms += [T.pairs[p][3] * xs[T.pairs[p][0]] - ms[s]
                  for s in slots for p in T.slot_pairs[s]]
    # An infinite entry leaves a +inf or a NaN term, and max() can pass over a NaN.
    return math.inf if any(map(math.isnan, terms)) else max(0.0, *terms)


# ---------------------------------------------------------------------------
# Random instances

def random_instance(seed: int, n_groups: int = 3, max_group_size: int = 3,
                    n_links: int = 3, density: float = 0.7) -> NetworkInstance:
    """Seeded random instance generator.

    Weights are drawn from U[0.5, 2], capacities from U[5, 50], valuation
    parameters from U[0.5, 5] with a fair family coin. Route sets are
    resampled until every link is crossed by at least two groups and every
    link is used; a budget of draws guards against absurd arguments.
    """
    if n_groups < 2:
        raise ValueError("need at least two groups")
    rng = np.random.default_rng(seed)
    link_ids = [f"l{j + 1}" for j in range(n_links)]
    caps = {lid: float(rng.uniform(5.0, 50.0)) for lid in link_ids}
    sizes = [int(rng.integers(1, max_group_size + 1)) for _ in range(n_groups)]
    agents = [AgentId(k + 1, i + 1) for k, size in enumerate(sizes) for i in range(size)]

    for _ in range(1000):
        routes_links: Dict[AgentId, List[str]] = {}
        for ki in agents:
            picked = [lid for lid in link_ids if rng.random() < density]
            if not picked:
                picked = [link_ids[int(rng.integers(0, n_links))]]
            routes_links[ki] = picked
        cover: Dict[str, Set[int]] = {lid: set() for lid in link_ids}
        for ki, ls in routes_links.items():
            for lid in ls:
                cover[lid].add(ki.group)
        if all(len(groups) >= 2 for groups in cover.values()):
            break
    else:
        raise ValidationFailure(
            "could not sample routes with two groups per link in 1000 tries")

    links = [Link(lid, caps[lid]) for lid in link_ids]
    routes = []
    valuations = {}
    for ki in agents:
        weights = tuple(sorted((lid, float(rng.uniform(0.5, 2.0)))
                               for lid in routes_links[ki]))
        routes.append(Route(ki, weights))
        family = LOG_SAT if rng.random() < 0.5 else EXP_SAT
        valuations[ki] = Valuation(family, float(rng.uniform(0.5, 5.0)),
                                   float(rng.uniform(0.5, 5.0)))
    return NetworkInstance(links, routes, valuations)


# ---------------------------------------------------------------------------
# Canonical JSON round trip

def instance_to_dict(instance: NetworkInstance) -> Dict[str, object]:
    return {
        "links": [{"id": l.id, "capacity": l.capacity} for l in instance.links],
        "agents": [
            {
                "group": r.agent.group,
                "member": r.agent.member,
                "valuation": {
                    "family": instance.valuations[r.agent].family,
                    "a": instance.valuations[r.agent].a,
                    "b": instance.valuations[r.agent].b,
                },
                "route": [{"link": lid, "alpha": a} for lid, a in r.weights],
            }
            for r in instance.routes
        ],
    }


def canonical_json(doc: object) -> str:
    """The text of every JSON document the package writes: sorted keys,
    two-space indent and a final newline, so reruns are byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_to_json(instance: NetworkInstance) -> str:
    return canonical_json(instance_to_dict(instance))


def _number(v: object, what: str) -> float:
    """v as a float if it is a JSON number (an int or a float, not a bool)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InstanceFormatError(f"{what} must be a number, got {v!r}")
    return float(v)


def _integer(v: object, what: str) -> int:
    """v if it is a JSON integer (not a bool)."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InstanceFormatError(f"{what} must be an integer, got {v!r}")
    return v


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object as a dict (json's object_pairs_hook); a key repeated
    in it raises InstanceFormatError, where json.loads keeps the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InstanceFormatError(
            f"JSON key {next(k for k in doc if keys.count(k) > 1)!r} repeated in one object")
    return doc


def _string(v: object, what: str) -> str:
    """v if it is a JSON string."""
    if not isinstance(v, str):
        raise InstanceFormatError(f"{what} must be a string, got {v!r}")
    return v


def instance_from_dict(data: Dict[str, object]) -> NetworkInstance:
    try:
        links = [Link(_string(d["id"], "link id"), _number(d["capacity"], "capacity"))
                 for d in data["links"]]
        routes = []
        valuations = {}
        for d in data["agents"]:
            ki = AgentId(_integer(d["group"], "group"), _integer(d["member"], "member"))
            weights = tuple(sorted((_string(e["link"], "route link"), _number(e["alpha"], "alpha"))
                                   for e in d["route"]))
            routes.append(Route(ki, weights))
            v = d["valuation"]
            valuations[ki] = Valuation(_string(v["family"], "valuation family"),
                                       _number(v["a"], "a"), _number(v["b"], "b"))
    except InstanceFormatError:
        raise
    except Exception as exc:
        raise InstanceFormatError(f"instance document malformed: {exc}") from exc
    return NetworkInstance(links, routes, valuations)


def instance_from_json(text: str) -> NetworkInstance:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "links" not in data or "agents" not in data:
        raise InstanceFormatError("instance document must have 'links' and 'agents'")
    return instance_from_dict(data)


def save_instance(instance: NetworkInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


def load_instance(path: str) -> NetworkInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
