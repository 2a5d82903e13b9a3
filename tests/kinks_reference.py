"""The pairwise scan for the kinks of the allocation in one agent's demand,
kept as the reference for ``DeviationEvaluator.demand_kinks``.

``pairwise_kinks(ev)`` builds the same offer forms (c, p, a), whose offer
c / (p + a*y) is one route link's (own peak a*y, or the mates' peak in p)
or the smallest off the route, and tests every pair of them: a crossing in
y > 0 counts where both offers lie within KINK_TOL of the smallest offer
there. That is cubic in route length, where demand_kinks sweeps the upper
envelope of 1/offer in O(F log F). Both compute a crossing with the same
formula, so every envelope kink is one of the scan's bit for bit; the scan
also keeps crossings that lie within KINK_TOL of the minimum without being
on the envelope.
"""

import math

from mcastmech.mechanism import KINK_TOL, NO_BOUND


def pairwise_kinks(ev):
    """(kinks, knees) of ev's agent, as demand_kinks returns them."""
    forms = [] if ev._r_off == NO_BOUND else [(ev._r_off, 1.0, 0.0)]
    kinks, knees = [], []
    for L in ev._route:
        base = L.rest + (L.others_demanding == 0)
        knees.append(base / L.a)
        forms.append((L.capacity, base, L.a))  # own peak a*y
        if L.peak_mates > 0.0:
            kinks.append(L.peak_mates / L.a)
            forms.append((L.capacity, base + L.peak_mates, 0.0))  # mates' peak
    for i, (c1, p1, a1) in enumerate(forms):
        for c2, p2, a2 in forms[:i]:
            den = c1 * a2 - c2 * a1
            y = (c2 * p1 - c1 * p2) / den if den else 0.0
            if not 0.0 < y < math.inf:
                continue
            r = min(c / (p + a * y) for c, p, a in forms)
            if max(c1 / (p1 + a1 * y), c2 / (p2 + a2 * y)) <= r * (1.0 + KINK_TOL):
                kinks.append(y)
    return kinks, knees
