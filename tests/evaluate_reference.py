"""The dict-walking form of ``evaluate``, kept as the independent reference
for the library's compiled pass.

It reads the instance's dicts and tuples one entry at a time, checks the
profile with its own copy of the validator and prices each agent link by
link, sharing no code with the library beyond the result types. Its sums
run left to right from 0.0 (as builtin ``sum`` does before Python 3.12),
in the order the library promises, so the two agree bit for bit.
"""

import math
from typing import Dict, List, Tuple

from mcastmech import (AgentId, AllocationResult, MechanismParams, NetworkInstance,
                       Outcome, Profile, TaxBreakdown)
from mcastmech.errors import MessageShapeError

VARIANTS = ("wbb", "sbb")


def _sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def member_agents_on_link(instance: NetworkInstance
                          ) -> Dict[Tuple[int, str], Tuple[AgentId, ...]]:
    """Each (group, link) slot's members as AgentIds, in members_on_link order."""
    return {(k, lid): tuple(AgentId(k, i) for i in members)
            for (k, lid), members in instance.members_on_link.items()}


def neighbours(instance: NetworkInstance
               ) -> Tuple[Dict[Tuple[AgentId, str], AgentId], Dict[Tuple[AgentId, str], AgentId]]:
    """Each (agent, link) pair's cyclic successor and predecessor among its
    group's members on the link, in member order; a singleton is its own."""
    succ, pred = {}, {}
    for (_, lid), members in member_agents_on_link(instance).items():
        for pos, ki in enumerate(members):
            succ[(ki, lid)] = members[(pos + 1) % len(members)]
            pred[(ki, lid)] = members[pos - 1]
    return succ, pred


def agents_on_link(instance: NetworkInstance) -> Dict[str, Tuple[AgentId, ...]]:
    """Each link's agents, groups ascending and members in order within each."""
    slots = member_agents_on_link(instance)
    return {lid: tuple(b for k in instance.groups_on_link[lid] for b in slots[(k, lid)])
            for lid in instance.link_ids}


def reference_validate(instance: NetworkInstance, profile: Profile, variant: str) -> None:
    if variant not in VARIANTS:
        raise MessageShapeError(f"unknown variant {variant!r}")
    missing = set(instance.agents) - set(profile)
    if missing:
        raise MessageShapeError(
            "profile missing agents: " + ", ".join(ki.label for ki in sorted(missing)))
    on_link = agents_on_link(instance)
    for ki in instance.agents:
        msg = profile[ki]
        want = set(instance.links_of[ki])
        got = set(msg.q)
        if want != got:
            raise MessageShapeError(
                f"agent {ki.label}: quotes keyed by {sorted(got)}, route is {sorted(want)}")
        if not (msg.y >= 0.0 and math.isfinite(msg.y)):
            raise MessageShapeError(f"agent {ki.label}: demand {msg.y} invalid")
        for lid, pair in msg.q.items():
            if len(pair) != 2 or not (pair[0] >= 0.0 and math.isfinite(pair[0])
                                      and pair[1] >= 0.0 and math.isfinite(pair[1])):
                raise MessageShapeError(f"agent {ki.label}: bad quote pair on {lid}")
        if variant == "sbb":
            if msg.rho is None or not (msg.rho >= 0.0 and math.isfinite(msg.rho)):
                raise MessageShapeError(f"agent {ki.label}: SBB requires rho >= 0")
            for lid in instance.links_of[ki]:
                if len(on_link[lid]) < 2:
                    raise MessageShapeError(
                        f"link {lid} carries a single agent, SBB rebate undefined")
        elif msg.rho is not None:
            raise MessageShapeError(f"agent {ki.label}: rho present under WBB")


def _offer(capacity: float, peaks, n_demanding: int) -> float:
    if not n_demanding:
        return math.inf
    total = _sum(peaks)
    if n_demanding >= 2:
        return capacity / total
    return capacity / (total + 1.0)


def reference_allocate(instance: NetworkInstance, y: Dict[AgentId, float]) -> AllocationResult:
    peaks: Dict[Tuple[int, str], float] = {}
    active: Dict[str, set] = {lid: set() for lid in instance.link_ids}
    for (k, lid), members in member_agents_on_link(instance).items():
        best = 0.0
        for ki in members:
            v = instance.alpha[(ki, lid)] * y[ki]
            if v > best:
                best = v
        peaks[(k, lid)] = best
        if best > 0.0:
            active[lid].add(k)
    r_per_link = {lid: _offer(instance.capacity[lid],
                              [peaks[(k, lid)] for k in instance.groups_on_link[lid]],
                              len(active[lid]))
                  for lid in instance.link_ids}
    finite = [v for v in r_per_link.values() if v != math.inf]
    r = min(finite) if finite else 0.0
    x = {ki: r * y[ki] for ki in instance.agents}
    m = {p: r * peaks[p] for p in peaks}
    return AllocationResult(r, r_per_link, peaks, x, m)


def _others_sums(entries: List[float]) -> List[float]:
    before, after = [0.0] * len(entries), [0.0] * len(entries)
    for j in range(1, len(entries)):
        before[j] = before[j - 1] + entries[j - 1]
        after[-j - 1] = after[-j] + entries[-j]
    return [b + a for b, a in zip(before, after)]


def _link_slots(params, a, y, x, r, q1, q2, pf, q1_succ, m_k, wk, wb, slack,
                rho_bar, n_l, others_pay):
    t1 = r * (a * pf * y)
    t2 = 0.0 if q1_succ is None else (q2 - q1_succ) * (q2 - q1_succ)
    t3 = (wk - wb) * (wk - wb)
    t4 = params.eta * pf * (q1 - pf) * (m_k - a * x)
    t5 = params.xi * wb * (wk - wb) * slack
    t6 = 0.0 if rho_bar is None else -(rho_bar / (n_l - 1)) * others_pay
    return t1, t2, t3, t4, t5, t6


def reference_evaluate(instance: NetworkInstance, profile: Profile,
                       params: MechanismParams) -> Outcome:
    reference_validate(instance, profile, params.variant)
    sbb = params.variant == "sbb"
    succ, pred = neighbours(instance)
    alloc = reference_allocate(instance, {ki: profile[ki].y for ki in instance.agents})

    w = {(k, lid): _sum(profile[b].q[lid][0] for b in members)
         for (k, lid), members in member_agents_on_link(instance).items()}
    w_bar: Dict[Tuple[int, str], float] = {}
    for lid in instance.link_ids:
        groups = instance.groups_on_link[lid]
        if len(groups) < 2:
            raise MessageShapeError(f"link {lid} carries one group, rival mean undefined; "
                                    f"validation should have rejected this instance")
        total = _sum(w[(k, lid)] for k in groups)
        for k in groups:
            w_bar[(k, lid)] = (total - w[(k, lid)]) / (len(groups) - 1)
    m_sum = {lid: _sum(alloc.m[(k, lid)] for k in instance.groups_on_link[lid])
             for lid in instance.link_ids}
    pools: Dict[str, Dict[AgentId, float]] = {}
    rho_bar: Dict[AgentId, float] = {}
    if sbb:
        on_link = agents_on_link(instance)
        for lid in instance.link_ids:
            agents = on_link[lid]
            entries = [instance.alpha[(b, lid)] * profile[b].q[lid][0] * profile[b].y
                       for b in agents]
            pools[lid] = dict(zip(agents, _others_sums(entries)))
        sums = _others_sums([profile[b].rho for b in instance.agents])
        rho_bar = {b: s / (len(sums) - 1) for b, s in zip(instance.agents, sums)}

    taxes = {}
    total_tax = 0.0
    for ki in instance.agents:
        k, msg = ki.group, profile[ki]
        per_link = {}
        total = 0.0
        for lid in instance.links_of[ki]:
            q1, q2 = msg.q[lid]
            wb = w_bar[(k, lid)]
            if len(instance.members_on_link[(k, lid)]) == 1:
                pf, q1_succ = wb, None
            else:
                pf = profile[pred[(ki, lid)]].q[lid][1]
                q1_succ = profile[succ[(ki, lid)]].q[lid][0]
            n_l = others_pay = 0
            if sbb:
                n_l = len(on_link[lid])
                others_pay = pools[lid][ki]
            slots = _link_slots(params, instance.alpha[(ki, lid)], msg.y, alloc.x[ki],
                                alloc.r, q1, q2, pf, q1_succ, alloc.m[(k, lid)], w[(k, lid)],
                                wb, instance.capacity[lid] - m_sum[lid],
                                rho_bar.get(ki), n_l, others_pay)
            per_link[lid] = slots
            t1, t2, t3, t4, t5, t6 = slots
            total += t1 + t2 + t3 + t4 + t5 + t6
        zeta_term = 0.0
        if sbb:
            zeta_term = params.zeta * ((msg.rho - alloc.r) * (msg.rho - alloc.r))
            total += zeta_term
        taxes[ki] = TaxBreakdown(per_link, zeta_term, total)
        total_tax += total
    return Outcome(**vars(alloc), w=w, w_bar=w_bar, rho_bar=rho_bar, taxes=taxes,
                   total_tax=total_tax)
