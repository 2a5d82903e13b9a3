"""Correctness checks the benchmark applies to every op's outputs.

Each check raises ``CheckFailure`` with a one-line reason. The checks
recompute what they verify from the outputs rather than trusting a
report the library attached to them: KKT residuals are recomputed from
the primal point and the duals, and the allocation scale is recomputed
from the demands by the rule stated in ``mcastmech.mechanism``.
"""

from __future__ import annotations

import math
from typing import Dict

from mcastmech import AgentId, constraint_violation, kkt_residuals
from mcastmech.cli import DEFAULT_LEMMA_TOL

DRIFT_TOL = 1e-6
FEASIBILITY_TOL = 1e-12
SCALE_RTOL = 1e-12


class CheckFailure(Exception):
    pass


def check_kkt(instance, primal, dual, tol: float) -> float:
    """Max KKT residual of (primal, dual), recomputed; must be <= tol."""
    report = kkt_residuals(instance, primal, dual.lam, dual.mu)
    if not report.max_residual <= tol:
        raise CheckFailure(f"KKT max residual {report.max_residual:.3e} > tol {tol:.1e}")
    return report.max_residual


def check_drift(instance, primal, outcome) -> None:
    drift = max(abs(outcome.x[ki] - primal.x[ki]) for ki in instance.agents)
    if not drift <= DRIFT_TOL:
        raise CheckFailure(f"construction drift {drift:.3e} > {DRIFT_TOL:.0e}")


def check_lemmas(lemmas) -> None:
    entries = lemmas.as_dict()
    worst = max(entries, key=entries.get)
    if not entries[worst] <= DEFAULT_LEMMA_TOL:
        raise CheckFailure(f"lemma {worst} = {entries[worst]:.3e} > {DEFAULT_LEMMA_TOL:.0e}")


def check_feasible(instance, x, m) -> None:
    worst = constraint_violation(instance, x, m)
    if not worst <= FEASIBILITY_TOL:
        raise CheckFailure(f"constraint violation {worst:.3e} > {FEASIBILITY_TOL:.0e}")


def reference_scale(instance, y: Dict) -> float:
    """Allocation scale r by the documented rule, independent of
    ``mcastmech.mechanism``: per link, with n the groups' weighted peak
    demands, offer c / sum(n) when two or more groups demand, c / (n + 1)
    when one does, and nothing when none does; r is the smallest offer,
    or 0 when no link makes one."""
    offers = []
    for lid in instance.link_ids:
        total = 0.0
        demanding = 0
        for k in instance.groups_on_link[lid]:
            members = [AgentId(k, i) for i in instance.members_on_link[(k, lid)]]
            ys = [(instance.alpha[(ag, lid)], y[ag]) for ag in members]
            total += max(a * v for a, v in ys)
            demanding += any(v > 0.0 for _, v in ys)
        if demanding >= 2:
            offers.append(instance.capacity[lid] / total)
        elif demanding == 1:
            offers.append(instance.capacity[lid] / (total + 1.0))
    return min(offers) if offers else 0.0


def check_allocation(instance, profile, outcome) -> None:
    """Scale, rates and reservations of an evaluated profile: r matches
    the reference rule, x = r * y, the pair (x, m) is feasible and every
    tax is finite."""
    y = {ki: profile[ki].y for ki in instance.agents}
    r_ref = reference_scale(instance, y)
    if not abs(outcome.r - r_ref) <= SCALE_RTOL * max(1.0, abs(r_ref)):
        raise CheckFailure(f"scale {outcome.r!r} differs from reference {r_ref!r}")
    for ki in instance.agents:
        if not abs(outcome.x[ki] - r_ref * y[ki]) <= SCALE_RTOL * max(1.0, abs(outcome.x[ki])):
            raise CheckFailure(f"rate of {ki.label} is not r * y")
    check_feasible(instance, outcome.x, outcome.m)
    if not all(math.isfinite(outcome.taxes[ki].total) for ki in instance.agents):
        raise CheckFailure("non-finite tax")
