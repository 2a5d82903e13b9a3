"""Message -> outcome maps, checked against an independent re-implementation.

The oracle below recomputes the allocation and every tax term with plain
loops and the published algebra, sharing no code with the package, so a
bookkeeping slip in either implementation shows up as a mismatch.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmech import (
    LOG_SAT,
    AgentId,
    DeviationEvaluator,
    MechanismParams,
    Message,
    allocate,
    evaluate,
    exact_best_response,
    profile_from_json,
    profile_to_json,
    random_instance,
    utilities,
    zero_message,
)
from mcastmech.errors import InstanceFormatError, MessageShapeError
from mcastmech.mechanism import NO_BOUND, _evaluators
from mcastmech.model import seq_sum

from conftest import coherent_quotes, make_instance
from evaluate_reference import agents_on_link, reference_evaluate

WBB = MechanismParams(variant="wbb")
SBB = MechanismParams(variant="sbb")


# ---------------------------------------------------------------------------
# oracle


def _oracle_allocation(inst, profile):
    y = {ki: profile[ki].y for ki in inst.agents}
    peaks, r_links = {}, {}
    for lid in inst.link_ids:
        cap = inst.capacity[lid]
        active = []
        for k in inst.groups_on_link[lid]:
            best = 0.0
            for i in inst.members_on_link[(k, lid)]:
                ki = AgentId(k, i)
                best = max(best, inst.alpha[(ki, lid)] * y[ki])
            peaks[(k, lid)] = best
            if best > 0.0:  # a group demands when its weighted peak is positive
                active.append(k)
        if len(active) >= 2:
            r_links[lid] = cap / sum(peaks[(k, lid)] for k in inst.groups_on_link[lid])
        elif len(active) == 1:
            n = peaks[(active[0], lid)]
            # two-term published form, not the simplified quotient
            r_links[lid] = cap / n - cap / (n * (n + 1.0))
        else:
            r_links[lid] = None
    bounded = [v for v in r_links.values() if v is not None]
    r = min(bounded) if bounded else 0.0
    x = {ki: r * y[ki] for ki in inst.agents}
    m = {key: r * peaks[key] for key in peaks}
    return r, x, m, peaks


def _oracle_price_factor(inst, profile, w_bar, ki, lid):
    members = inst.members_on_link[(ki.group, lid)]
    if len(members) == 1:
        return w_bar[(ki.group, lid)]
    pos = members.index(ki.member)
    pred = AgentId(ki.group, members[pos - 1])
    return profile[pred].q[lid][1]


def oracle_taxes(inst, profile, params):
    """Per-agent, per-link six-term tax tuples plus the per-agent extras."""
    sbb = params.variant == "sbb"
    r, x, m, _ = _oracle_allocation(inst, profile)

    w, w_bar = {}, {}
    for lid in inst.link_ids:
        groups = inst.groups_on_link[lid]
        for k in groups:
            w[(k, lid)] = sum(
                profile[AgentId(k, i)].q[lid][0] for i in inst.members_on_link[(k, lid)]
            )
        for k in groups:
            others = [w[(g, lid)] for g in groups if g != k]
            w_bar[(k, lid)] = sum(others) / len(others)

    if sbb:
        on_link = agents_on_link(inst)
        n_tot = len(inst.agents)
        rho_bar = {
            ki: sum(profile[b].rho for b in inst.agents if b != ki) / (n_tot - 1)
            for ki in inst.agents
        }

    per_link = {}
    totals = {}
    zeta_terms = {}
    for ki in inst.agents:
        total = 0.0
        for lid in inst.links_of[ki]:
            k, cap = ki.group, inst.capacity[lid]
            alpha = inst.alpha[(ki, lid)]
            members = inst.members_on_link[(k, lid)]
            q1, q2 = profile[ki].q[lid]
            pf = _oracle_price_factor(inst, profile, w_bar, ki, lid)
            if len(members) == 1:
                t2 = 0.0
            else:
                pos = members.index(ki.member)
                succ = AgentId(k, members[(pos + 1) % len(members)])
                t2 = (q2 - profile[succ].q[lid][0]) ** 2
            link_load = sum(m[(g, lid)] for g in inst.groups_on_link[lid])
            t1 = x[ki] * alpha * pf
            t3 = (w[(k, lid)] - w_bar[(k, lid)]) ** 2
            t4 = params.eta * pf * (q1 - pf) * (m[(k, lid)] - alpha * x[ki])
            t5 = params.xi * w_bar[(k, lid)] * (w[(k, lid)] - w_bar[(k, lid)]) * (cap - link_load)
            t6 = 0.0
            if sbb:
                n_l = len(on_link[lid])
                rebate = 0.0
                for b in on_link[lid]:
                    if b == ki:
                        continue
                    # priced by b's own first quote, never by ki's messages
                    rebate += inst.alpha[(b, lid)] * profile[b].q[lid][0] * profile[b].y
                t6 = -(rho_bar[ki] / (n_l - 1)) * rebate
            per_link[(ki, lid)] = (t1, t2, t3, t4, t5, t6)
            total += t1 + t2 + t3 + t4 + t5 + t6
        zt = params.zeta * (profile[ki].rho - r) ** 2 if sbb else 0.0
        zeta_terms[ki] = zt
        totals[ki] = total + zt
    return totals, per_link, zeta_terms


def random_profile(inst, rng, variant, zero_rate=0.0, q_hi=2.0, y_hi=2.0):
    profile = {}
    for ki in inst.agents:
        y = 0.0 if rng.random() < zero_rate else float(rng.uniform(0.0, y_hi))
        q = {
            lid: (float(rng.uniform(0.0, q_hi)), float(rng.uniform(0.0, q_hi)))
            for lid in inst.links_of[ki]
        }
        rho = float(rng.uniform(0.0, 2.0)) if variant == "sbb" else None
        profile[ki] = Message(y, q, rho)
    return profile


# ---------------------------------------------------------------------------
# allocation map


def _peaks_and_active(inst, y):
    """Per-(group, link) weighted peaks, as allocate reports them in n, and
    per link the demanding groups: those whose peak is positive."""
    peaks = allocate(inst, y).n
    active = {lid: {k for k in inst.groups_on_link[lid] if peaks[(k, lid)] > 0.0}
              for lid in inst.link_ids}
    return peaks, active


def test_group_maxima_plain_and_weighted(two_member_instance):
    inst = two_member_instance
    y = {AgentId(1, 1): 4.0, AgentId(1, 2): 6.0, AgentId(2, 1): 0.0}
    peaks, active = _peaks_and_active(inst, y)
    assert peaks[(1, "l1")] == 6.0
    assert active["l1"] == {1}

    weighted = make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 2.0}),
            (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    y = {AgentId(1, 1): 3.0, AgentId(1, 2): 5.0, AgentId(2, 1): 1.0}
    peaks, active = _peaks_and_active(weighted, y)
    assert peaks[(1, "l1")] == 6.0
    assert active["l1"] == {1, 2}


def test_group_maxima_all_zero(symmetric_instance):
    y = {ki: 0.0 for ki in symmetric_instance.agents}
    peaks, active = _peaks_and_active(symmetric_instance, y)
    assert all(v == 0.0 for v in peaks.values())
    assert active["l1"] == set()


def test_link_scaling_two_active(symmetric_instance):
    y = {AgentId(1, 1): 4.0, AgentId(2, 1): 6.0}
    assert allocate(symmetric_instance, y).r_per_link["l1"] == pytest.approx(1.0)


def test_link_scaling_single_active_uses_damped_branch():
    inst = make_instance(
        {"l1": 12.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    y = {AgentId(1, 1): 3.0, AgentId(2, 1): 0.0}
    # 12/3 - 12/(3*4) = 3, strictly below the naive 12/3
    assert allocate(inst, y).r_per_link["l1"] == pytest.approx(3.0)


def test_link_scaling_no_active_is_unbounded(symmetric_instance):
    y = {ki: 0.0 for ki in symmetric_instance.agents}
    assert allocate(symmetric_instance, y).r_per_link["l1"] == NO_BOUND


def test_allocate_zero_profile(symmetric_instance):
    alloc = allocate(symmetric_instance, {ki: 0.0 for ki in symmetric_instance.agents})
    assert alloc.r == 0.0
    assert all(v == 0.0 for v in alloc.x.values())
    assert all(v == 0.0 for v in alloc.m.values())
    assert alloc.r_per_link["l1"] == NO_BOUND


def test_allocate_boundary_exact(symmetric_instance):
    y = {AgentId(1, 1): 4.0, AgentId(2, 1): 6.0}
    alloc = allocate(symmetric_instance, y)
    assert alloc.r == pytest.approx(1.0)
    assert alloc.x[AgentId(1, 1)] == pytest.approx(4.0)
    assert sum(alloc.m.values()) == pytest.approx(10.0)


def test_allocate_takes_min_across_links(chain_instance):
    y = {AgentId(1, 1): 4.0, AgentId(2, 1): 6.0, AgentId(3, 1): 10.0}
    alloc = allocate(chain_instance, y)
    # l1: 10/(4+6) = 1, l2: 8/(6+10) = 0.5
    assert alloc.r_per_link["l1"] == pytest.approx(1.0)
    assert alloc.r_per_link["l2"] == pytest.approx(0.5)
    assert alloc.r == pytest.approx(0.5)
    assert alloc.x[AgentId(1, 1)] == pytest.approx(2.0)
    assert alloc.x[AgentId(3, 1)] == pytest.approx(5.0)


def test_demands_lost_to_weighting_count_as_idle():
    """Demands of 5e-324 under weights 0.4 leave every weighted peak at 0:
    no group demands, the link offers no bound and r = 0, on every path."""
    inst = make_instance({"l1": 10.0}, [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 0.4}),
                                        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 0.4})])
    profile = {ki: Message(5e-324, {"l1": (0.1, 0.1)}) for ki in inst.agents}
    alloc = allocate(inst, {ki: 5e-324 for ki in inst.agents})
    assert alloc.r == 0.0 and alloc.r_per_link["l1"] == NO_BOUND
    out = evaluate(inst, profile, WBB)
    assert out.r == 0.0
    for ki in inst.agents:
        assert DeviationEvaluator(inst, profile, WBB, ki).utility(profile[ki]) == \
            utilities(inst, profile, WBB)[ki]
        assert exact_best_response(inst, profile, ki, WBB).gain > 0.0


def test_feasible_for_every_profile(chain_instance):
    rng = np.random.default_rng(5)
    inst = chain_instance
    for _ in range(400):
        y = {ki: float(rng.uniform(0.0, 20.0)) for ki in inst.agents}
        if rng.random() < 0.25:
            y[inst.agents[int(rng.integers(len(inst.agents)))]] = 0.0
        alloc = allocate(inst, y)
        for lid in inst.link_ids:
            load = sum(alloc.m[(k, lid)] for k in inst.groups_on_link[lid])
            assert load <= inst.capacity[lid] + 1e-12
        for ki in inst.agents:
            for lid in inst.links_of[ki]:
                assert inst.alpha[(ki, lid)] * alloc.x[ki] <= alloc.m[(ki.group, lid)] + 1e-12


def test_scaling_quasi_invariance(chain_instance):
    inst = chain_instance
    y = {AgentId(1, 1): 4.0, AgentId(2, 1): 6.0, AgentId(3, 1): 10.0}
    base = allocate(inst, y)
    for c in (0.5, 2.0, 10.0):
        scaled = allocate(inst, {ki: c * v for ki, v in y.items()})
        for ki in inst.agents:
            assert scaled.x[ki] == pytest.approx(base.x[ki], rel=1e-12)


def test_boundary_attained_at_argmin_link(chain_instance):
    y = {AgentId(1, 1): 4.0, AgentId(2, 1): 6.0, AgentId(3, 1): 10.0}
    alloc = allocate(chain_instance, y)
    load = sum(alloc.m[(k, "l2")] for k in chain_instance.groups_on_link["l2"])
    assert load == pytest.approx(chain_instance.capacity["l2"], abs=1e-12)


# ---------------------------------------------------------------------------
# prices


def test_group_prices_two_groups(symmetric_instance):
    profile = {
        AgentId(1, 1): Message(1.0, {"l1": (3.0, 0.0)}),
        AgentId(2, 1): Message(1.0, {"l1": (5.0, 0.0)}),
    }
    out = evaluate(symmetric_instance, profile, WBB)
    w, w_bar = out.w, out.w_bar
    assert w[(1, "l1")] == 3.0 and w[(2, "l1")] == 5.0
    assert w_bar[(1, "l1")] == 5.0 and w_bar[(2, "l1")] == 3.0


def test_group_prices_three_group_mean(three_group_instance):
    profile = {
        AgentId(1, 1): Message(0.0, {"l1": (2.0, 0.0)}),
        AgentId(2, 1): Message(0.0, {"l1": (4.0, 0.0)}),
        AgentId(3, 1): Message(0.0, {"l1": (6.0, 0.0)}),
    }
    w_bar = evaluate(three_group_instance, profile, WBB).w_bar
    assert w_bar[(1, "l1")] == pytest.approx(5.0)
    assert w_bar[(2, "l1")] == pytest.approx(4.0)


def test_group_prices_sum_members(two_member_instance):
    profile = {
        AgentId(1, 1): Message(0.0, {"l1": (1.5, 0.0)}),
        AgentId(1, 2): Message(0.0, {"l1": (2.5, 0.0)}),
        AgentId(2, 1): Message(0.0, {"l1": (0.0, 0.0)}),
    }
    out = evaluate(two_member_instance, profile, WBB)
    w, w_bar = out.w, out.w_bar
    assert w[(1, "l1")] == pytest.approx(4.0)
    assert w_bar[(2, "l1")] == pytest.approx(4.0)
    assert w_bar[(1, "l1")] == pytest.approx(0.0)


def test_single_group_link_is_a_shape_error():
    """A link crossed by one group has no rival price mean: evaluate and
    the evaluator of an agent routed over it raise the typed error."""
    inst = make_instance(
        {"l1": 10.0, "l2": 5.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    profile = {ki: Message(1.0, {lid: (0.5, 0.5) for lid in inst.links_of[ki]})
               for ki in inst.agents}
    with pytest.raises(MessageShapeError):
        evaluate(inst, profile, WBB)
    with pytest.raises(MessageShapeError):
        DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))


def test_shared_read_raises_only_for_agents_on_a_one_group_link():
    """Evaluators built from one shared read raise the typed error for an
    agent whose route crosses a one-group link, as a lone evaluator does,
    and only there: the agent before it, off that link, gets the same
    evaluator as one built alone."""
    inst = make_instance(
        {"l1": 10.0, "l2": 5.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
        ],
    )
    profile = {ki: Message(1.0, {lid: (0.5, 0.5) for lid in inst.links_of[ki]})
               for ki in inst.agents}
    shared = _evaluators(inst, profile, WBB)
    ev = next(shared)
    with pytest.raises(MessageShapeError):
        next(shared)
    with pytest.raises(MessageShapeError):
        DeviationEvaluator(inst, profile, WBB, AgentId(2, 1))
    fresh = DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))
    assert ev.ki == AgentId(1, 1) and ev.coords == fresh.coords
    for y in (0.0, 0.5, 1.0, 4.0):
        msg = Message(y, {"l1": (0.3, 0.5)})
        assert ev.utility(msg) == fresh.utility(msg)
        assert ev.rate_model(y) == fresh.rate_model(y)


def test_rate_model_reads_no_value_at_a_demand(chain_instance):
    """rate_model reads the binding form alone: with _scale, the producer
    of values at a demand, disabled it answers as before, at y = 0 and at
    demands on both sides of a kink, and counts one evaluation per read."""
    rng = np.random.default_rng(3)
    profile = {ki: Message(float(rng.uniform(0.5, 3.0)),
                           {lid: (float(rng.uniform()), float(rng.uniform()))
                            for lid in chain_instance.links_of[ki]})
               for ki in chain_instance.agents}
    for ki in chain_instance.agents:
        ev = DeviationEvaluator(chain_instance, profile, WBB, ki)
        ys = [0.0, *ev.demand_kinks()[0], *ev.demand_kinks()[1]]
        ys += [y * f for y in ys[1:] for f in (0.5, 2.0)]
        reads = [ev.rate_model(y) for y in ys]

        def no_values(y):
            raise AssertionError("rate_model read a value at a demand")

        ev._scale = no_values
        assert [ev.rate_model(y) for y in ys] == reads
        assert ev.evals == 2 * len(ys)


# ---------------------------------------------------------------------------
# taxes vs oracle


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
def test_taxes_match_oracle(variant, two_member_instance, chain_instance):
    params = MechanismParams(variant=variant)
    rng = np.random.default_rng(12)
    cases = [(two_member_instance, 350), (chain_instance, 350)]
    cases.append((random_instance(31, n_groups=3, max_group_size=2, n_links=2), 300))
    for inst, n_profiles in cases:
        for _ in range(n_profiles):
            profile = random_profile(inst, rng, variant, zero_rate=0.2)
            totals, per_link, zeta_terms = oracle_taxes(inst, profile, params)
            out = evaluate(inst, profile, params)
            for ki in inst.agents:
                tb = out.taxes[ki]
                for lid in inst.links_of[ki]:
                    got = tb.per_link[lid]
                    want = per_link[(ki, lid)]
                    for j in range(6):
                        assert got[j] == pytest.approx(want[j], abs=1e-12), (
                            f"term {j + 1} for {ki.label} on {lid}"
                        )
                assert tb.zeta_term == pytest.approx(zeta_terms[ki], abs=1e-12)
                assert tb.total == pytest.approx(totals[ki], abs=1e-11)


def test_quote_mismatch_term_example(two_member_instance):
    # group of two: agent 1.1's second quote 3 vs successor 1.2's first quote 1
    profile = {
        AgentId(1, 1): Message(0.0, {"l1": (0.0, 3.0)}),
        AgentId(1, 2): Message(0.0, {"l1": (1.0, 0.0)}),
        AgentId(2, 1): Message(0.0, {"l1": (1.0, 0.0)}),
    }
    out = evaluate(two_member_instance, profile, WBB)
    assert out.taxes[AgentId(1, 1)].per_link["l1"][1] == pytest.approx(4.0)


def test_equal_prices_tight_link_leaves_only_payment(two_member_instance):
    # everyone quotes p=0.25 coherently; demands fill the link exactly
    p = 0.25
    profile = {
        AgentId(1, 1): Message(7.0, {"l1": (p / 2, p / 2)}),
        AgentId(1, 2): Message(7.0, {"l1": (p / 2, p / 2)}),
        AgentId(2, 1): Message(3.0, {"l1": (p, p)}),
    }
    # w = (0.25, 0.25) for both groups, w_bar likewise; r = 10/(7+3) = 1
    out = evaluate(two_member_instance, profile, WBB)
    for ki in two_member_instance.agents:
        t = out.taxes[ki].per_link["l1"]
        alpha_price = out.x[ki] * 1.0 * (p / 2 if ki.group == 1 else p)
        assert t[0] == pytest.approx(alpha_price, abs=1e-12)
        assert t[1:] == pytest.approx((0.0,) * 5, abs=1e-15)


def test_zero_demand_profile_keeps_only_price_terms(two_member_instance):
    rng = np.random.default_rng(3)
    profile = random_profile(two_member_instance, rng, "wbb")
    for ki in profile:
        profile[ki] = Message(0.0, profile[ki].q, None)
    out = evaluate(two_member_instance, profile, WBB)
    for ki in two_member_instance.agents:
        t1, t2, t3, t4, t5, t6 = out.taxes[ki].per_link["l1"]
        assert t1 == 0.0 and t4 == 0.0 and t6 == 0.0
        u = utilities(two_member_instance, profile, WBB)[ki]
        assert u == pytest.approx(-(t2 + t3 + t5))


def test_sbb_cancellation_with_consensus_rho(three_group_instance):
    """Payments and redistribution rebates cancel on the link when quotes
    are coherent and rho agrees with r; for arbitrary quotes the rebates
    return exactly the self-quoted payments r * alpha * q1 * y."""
    inst = three_group_instance
    rng = np.random.default_rng(8)
    for _ in range(300):
        profile = random_profile(inst, rng, "sbb", zero_rate=0.15)
        r = allocate(inst, {ki: profile[ki].y for ki in inst.agents}).r
        for ki in inst.agents:
            profile[ki] = Message(profile[ki].y, profile[ki].q, r)
        out = evaluate(inst, profile, SBB)
        total_t6 = sum(out.taxes[ki].per_link["l1"][5] for ki in inst.agents)
        self_quoted = sum(inst.alpha[(b, "l1")] * profile[b].q["l1"][0] * profile[b].y
                          for b in inst.agents)
        assert total_t6 == pytest.approx(-r * self_quoted, abs=1e-12)
        # with every rho equal to r the zeta terms vanish as well
        assert all(out.taxes[ki].zeta_term == 0.0 for ki in inst.agents)

        out = evaluate(inst, coherent_quotes(inst, profile, rng), SBB)
        total_t1 = sum(out.taxes[ki].per_link["l1"][0] for ki in inst.agents)
        total_t6 = sum(out.taxes[ki].per_link["l1"][5] for ki in inst.agents)
        assert total_t1 + total_t6 == pytest.approx(0.0, abs=1e-12)


def test_sbb_brute_force_double_sum(three_group_instance):
    """The rebate is the others' self-quoted payments alpha * q1 * x,
    each counted (N-1) times across the receivers."""
    inst = three_group_instance
    rng = np.random.default_rng(21)
    profile = random_profile(inst, rng, "sbb")
    out = evaluate(inst, profile, SBB)
    n_l = len(agents_on_link(inst)["l1"])
    for ki in inst.agents:
        rho_bar = out.rho_bar[ki]
        others_pay = sum(
            inst.alpha[(b, "l1")] * profile[b].q["l1"][0] * out.x[b] / out.r
            if out.r > 0 else 0.0
            for b in inst.agents
            if b != ki
        )
        expect = -(rho_bar / (n_l - 1)) * others_pay
        assert out.taxes[ki].per_link["l1"][5] == pytest.approx(expect, rel=1e-9)


def test_sbb_rebate_ignores_own_messages_bitwise(chain_instance, oracle_instance):
    """An agent's own entry never enters its rebate, not even at rounding
    level: with rho fixed, slot 6 keeps every bit while the agent's own
    demand and first quotes range over many orders of magnitude."""
    rng = np.random.default_rng(17)
    for inst in (chain_instance, oracle_instance):
        profile = random_profile(inst, rng, "sbb")
        for ki in inst.agents:
            slot6 = set()
            for y in (0.0, 1e-3, 2.0, 1e6, 1e12):
                patched = dict(profile)
                patched[ki] = Message(y, {lid: (3.0 * y + 0.1, 0.2) for lid in inst.links_of[ki]},
                                      profile[ki].rho)
                slot6.add(tuple(t[5] for t in evaluate(inst, patched, SBB).taxes[ki].per_link.values()))
            assert len(slot6) == 1


# ---------------------------------------------------------------------------
# utility and evaluation plumbing


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_utility_finite_everywhere(seed, chain_instance):
    rng = np.random.default_rng(seed)
    profile = random_profile(chain_instance, rng, "wbb", zero_rate=0.3, q_hi=5.0, y_hi=30.0)
    u = utilities(chain_instance, profile, WBB)
    for ki in chain_instance.agents:
        assert np.isfinite(u[ki])


def test_deviation_evaluator_agrees_with_evaluate(chain_instance):
    rng = np.random.default_rng(9)
    profile = random_profile(chain_instance, rng, "wbb")
    ki = chain_instance.agents[1]
    ev = DeviationEvaluator(chain_instance, profile, WBB, ki)
    assert ev.evals == 0
    for _ in range(25):
        trial = random_profile(chain_instance, rng, "wbb")[ki]
        patched = dict(profile)
        patched[ki] = trial
        assert ev.utility(trial) == utilities(chain_instance, patched, WBB)[ki]
    assert ev.evals == 25


FIXTURES = ("symmetric_instance", "oracle_instance", "slack_instance",
            "two_member_instance", "chain_instance", "three_group_instance",
            "a4_fail_instance", "saturated_instance")
DEMAND = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))
QUOTE = st.floats(0.0, 3.0)


def _draw_message(draw, inst, ki, variant, idle=False):
    y = 0.0 if idle else draw(DEMAND)
    q = {lid: (draw(QUOTE), draw(QUOTE)) for lid in inst.links_of[ki]}
    rho = draw(st.floats(0.0, 2.0)) if variant == "sbb" else None
    return Message(y, q, rho)


def _assert_bit_identical(inst, profile, params, ki, deviations):
    """One evaluator, several deviations in turn: each must equal the
    whole-profile evaluation exactly, so no deviation leaks into the next."""
    ev = DeviationEvaluator(inst, profile, params, ki)
    for msg in deviations:
        patched = dict(profile)
        patched[ki] = msg
        assert ev.utility(msg) == utilities(inst, patched, params)[ki]
    assert ev.evals == len(deviations)


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("name", FIXTURES + ("random",))
def test_deviation_evaluator_bit_identical(name, variant, request):
    """Random profiles and deviations on every fixture (and a random
    instance with multi-member groups on several links): the evaluator's
    utility equals utilities() of the patched profile with exact ==.
    Demands are zero often enough to reach the idle-link, lone-group and
    all-idle branches; `idle` forces the rival groups' demand to zero."""
    inst = (random_instance(31, n_groups=3, max_group_size=3, n_links=3)
            if name == "random" else request.getfixturevalue(name))
    params = MechanismParams(variant=variant)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def check(data):
        ki = data.draw(st.sampled_from(inst.agents))
        idle = data.draw(st.booleans())
        profile = {b: _draw_message(data.draw, inst, b, variant,
                                    idle=idle and b.group != ki.group)
                   for b in inst.agents}
        deviations = [profile[ki]] + [_draw_message(data.draw, inst, ki, variant)
                                      for _ in range(3)]
        _assert_bit_identical(inst, profile, params, ki, deviations)

    check()


def _fixed_profile(inst, variant, y, q=0.5):
    return {b: Message(y.get(b.label, 1.0), {lid: (q, 0.7 * q) for lid in inst.links_of[b]},
                       0.9 if variant == "sbb" else None)
            for b in inst.agents}


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
def test_deviation_evaluator_branches(variant, symmetric_instance, two_member_instance,
                                      chain_instance):
    """Each allocation branch, reached on purpose, is priced bit-identically."""
    params = MechanismParams(variant=variant)
    rho = 0.4 if variant == "sbb" else None

    def dev(inst, ki, y):
        return Message(y, {lid: (0.3, 0.2) for lid in inst.links_of[ki]}, rho)

    # own y = 0 while the rivals demand; singleton groups on one link
    inst, ki = symmetric_instance, AgentId(1, 1)
    profile = _fixed_profile(inst, variant, {})
    _assert_bit_identical(inst, profile, params, ki, [dev(inst, ki, 0.0), dev(inst, ki, 2.0)])

    # all-zero demand: r = 0
    profile = _fixed_profile(inst, variant, {"1.1": 0.0, "2.1": 0.0})
    assert allocate(inst, {b: 0.0 for b in inst.agents}).r == 0.0
    _assert_bit_identical(inst, profile, params, ki, [dev(inst, ki, 0.0)])

    # a lone demanding group offers c / (n + 1); its group-mate deviates
    inst, ki = two_member_instance, AgentId(1, 2)
    profile = _fixed_profile(inst, variant, {"1.1": 3.0, "2.1": 0.0})
    assert allocate(inst, {AgentId(1, 1): 3.0, ki: 1.0, AgentId(2, 1): 0.0}).r == 10.0 / 4.0
    _assert_bit_identical(inst, profile, params, ki,
                          [dev(inst, ki, 1.0), dev(inst, ki, 5.0), dev(inst, ki, 0.0)])

    # the deviation moves the binding link: l1 offers 10/(4+y), l2 8/(2+y)
    inst, ki = chain_instance, AgentId(2, 1)
    profile = _fixed_profile(inst, variant, {"1.1": 4.0, "3.1": 2.0})
    binding = []
    for y in (1.0, 10.0):
        ys = {AgentId(1, 1): 4.0, ki: y, AgentId(3, 1): 2.0}
        offers = allocate(inst, ys).r_per_link
        binding.append(min(offers, key=offers.get))
    assert binding == ["l1", "l2"]
    _assert_bit_identical(inst, profile, params, ki, [dev(inst, ki, 1.0), dev(inst, ki, 10.0)])


def test_deviation_evaluator_snapshots_the_other_agents(two_member_instance):
    """The evaluator copies what the other agents fix when it is built:
    later edits to the profile dict, or to the other agents' Message
    objects in place, do not change its values; evals counts calls."""
    inst = two_member_instance
    rng = np.random.default_rng(4)
    profile = random_profile(inst, rng, "sbb")
    ki = AgentId(1, 1)
    frozen = {b: m.copy() for b, m in profile.items()}
    ev = DeviationEvaluator(inst, profile, SBB, ki)
    trials = [random_profile(inst, rng, "sbb")[ki] for _ in range(3)]
    before = [ev.utility(m) for m in trials]
    assert ev.evals == 3

    mate, rival = AgentId(1, 2), AgentId(2, 1)
    profile[mate].y = 9.0
    profile[mate].q["l1"] = (2.5, 2.5)
    profile[mate].rho = 1.7
    profile[rival] = Message(0.0, {"l1": (0.0, 0.0)}, 0.0)
    del profile[ki]
    assert [ev.utility(m) for m in trials] == before
    assert ev.evals == 6
    for m, u in zip(trials, before):
        patched = dict(frozen)
        patched[ki] = m
        assert u == utilities(inst, patched, SBB)[ki]


def test_profile_round_trip_byte_stable(chain_instance):
    rng = np.random.default_rng(2)
    profile = random_profile(chain_instance, rng, "sbb")
    text = profile_to_json(profile)
    assert profile_to_json(profile_from_json(text, chain_instance)) == text


@pytest.mark.parametrize("entry", [
    {"y": 2.0, "q": {"l1": [0.1, 0.1, 7.0]}},
    {"y": 2.0, "q": {"l1": [0.1]}},
    {"y": 2.0, "q": {"l1": "ab"}},
    {"y": 2.0, "q": {"l1": [0.1, True]}},
    {"y": 2.0, "q": {"l1": ["0.1", 0.1]}},
    {"y": True, "q": {"l1": [0.1, 0.1]}},
    {"y": "2.0", "q": {"l1": [0.1, 0.1]}},
    {"y": 2.0, "q": {"l1": [0.1, 0.1]}, "rho": False},
])
def test_profile_reader_rejects_coerced_values(symmetric_instance, entry):
    """A quote is a list of exactly two JSON numbers, and the demand and
    rho are JSON numbers that are not booleans: a third number in a quote
    is not dropped, nor true read as 1.0."""
    text = json.dumps({"1.1": entry, "2.1": {"y": 1.0, "q": {"l1": [0.1, 0.1]}}})
    with pytest.raises(InstanceFormatError):
        profile_from_json(text, symmetric_instance)


@pytest.mark.parametrize("extra", ["01.1", " 1.1", "1.1.0", "1", "9.9"])
def test_profile_reader_takes_only_agent_labels(symmetric_instance, extra):
    """Each key is an agent's label "k.i": "01.1" does not silently replace
    agent 1.1, nor is an entry for an agent the instance lacks ignored."""
    entry = {"y": 9.0, "q": {"l1": [0.1, 0.1]}}
    text = json.dumps({"1.1": {"y": 1.0, "q": {"l1": [0.1, 0.1]}}, "2.1": entry, extra: entry})
    with pytest.raises(InstanceFormatError, match="no agent label"):
        profile_from_json(text, symmetric_instance)


@pytest.mark.parametrize("first, key", [
    ('"1.1": {"y": 9.0, "q": {"l1": [0.1, 0.1]}}, ', "1.1"),
    ('"2.1": {"y": 1.0, "y": 9.0, "q": {"l1": [0.3, 0.2]}}, ', "y"),
    ('"2.1": {"y": 1.0, "q": {"l1": [0.3, 0.2], "l1": [0.3, 0.2]}}, ', "l1"),
], ids=["agent", "demand", "quote"])
def test_profile_reader_rejects_repeated_keys(symmetric_instance, first, key):
    """A key twice in one JSON object is unreadable input: a second "1.1"
    or a second "y" does not silently replace the first."""
    text = ('{' + first + '"1.1": {"y": 1.0, "q": {"l1": [0.1, 0.1]}}, '
            '"2.1": {"y": 7.0, "q": {"l1": [0.3, 0.2]}}}')
    with pytest.raises(InstanceFormatError, match=f"JSON key '{key}' repeated"):
        profile_from_json(text, symmetric_instance)


@pytest.mark.parametrize("weight", ["eta", "xi", "zeta"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_params_reject_non_finite_weights(weight, value):
    with pytest.raises(ValueError):
        MechanismParams(variant="sbb", **{weight: value})


def test_profile_shape_errors(symmetric_instance, two_member_instance):
    inst = symmetric_instance
    good = {ki: zero_message(inst, ki, "wbb") for ki in inst.agents}

    missing_agent = dict(good)
    del missing_agent[AgentId(2, 1)]
    with pytest.raises(MessageShapeError):
        evaluate(inst, missing_agent, WBB)

    wrong_links = dict(good)
    wrong_links[AgentId(1, 1)] = Message(0.0, {"nope": (0.0, 0.0)})
    with pytest.raises(MessageShapeError):
        evaluate(inst, wrong_links, WBB)

    rho_under_wbb = dict(good)
    rho_under_wbb[AgentId(1, 1)] = Message(0.0, {"l1": (0.0, 0.0)}, 1.0)
    with pytest.raises(MessageShapeError):
        evaluate(inst, rho_under_wbb, WBB)

    with pytest.raises(MessageShapeError):
        evaluate(inst, good, SBB)  # rho missing under sbb

    negative = dict(good)
    negative[AgentId(1, 1)] = Message(-1.0, {"l1": (0.0, 0.0)})
    with pytest.raises(MessageShapeError):
        evaluate(inst, negative, WBB)


# ---------------------------------------------------------------------------
# compiled evaluate vs the dict-walking reference


def _reference_profile(inst, rng, variant):
    """Demands and quotes across the float range: exact zeros, the smallest
    subnormal, log-uniform magnitudes from 1e-300 to 1e300 and plain
    U[0, 40] demands; quotes zero, U[0, 3] or log-uniform up to 1e5."""
    def demand():
        u = rng.random()
        if u < 0.15:
            return 0.0
        if u < 0.2:
            return 5e-324
        if u < 0.6:
            return float(10.0 ** rng.uniform(-300.0, 300.0))
        return float(rng.uniform(0.0, 40.0))

    def quote():
        u = rng.random()
        if u < 0.1:
            return 0.0
        if u < 0.3:
            return float(10.0 ** rng.uniform(-5.0, 5.0))
        return float(rng.uniform(0.0, 3.0))

    return {ki: Message(demand(), {lid: (quote(), quote()) for lid in inst.links_of[ki]},
                        float(rng.uniform(0.0, 2.0)) if variant == "sbb" else None)
            for ki in inst.agents}


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
def test_evaluate_matches_reference_bitwise(variant):
    """The compiled pass equals the dict-walking reference field by field
    (repr equality, so every float to the last bit and every dict in the
    same key order) on random instances, singleton groups included."""
    params = MechanismParams(variant=variant)
    rng = np.random.default_rng(17)
    n_checked = 0
    for seed in range(1, 41):
        inst = random_instance(seed, n_groups=2 + seed % 4, max_group_size=1 + seed % 3,
                               n_links=1 + seed % 4, density=0.7)
        for _ in range(8):
            profile = _reference_profile(inst, rng, variant)
            assert repr(evaluate(inst, profile, params)) == \
                repr(reference_evaluate(inst, profile, params))
            n_checked += 1
    assert n_checked == 320


def _raised(fn, *args):
    with pytest.raises(MessageShapeError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_invalid_profiles_raise_as_reference(symmetric_instance, two_member_instance,
                                             chain_instance):
    """Each malformed profile raises the reference's error type and message,
    the first fault in agent order winning."""
    nan, inf = float("nan"), float("inf")
    one_agent_link = make_instance(
        {"l1": 10.0, "l2": 5.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    cases = []
    for inst in (symmetric_instance, two_member_instance, chain_instance, one_agent_link):
        for variant in ("wbb", "sbb"):
            good = {ki: Message(1.0, {lid: (0.5, 0.5) for lid in inst.links_of[ki]},
                                0.5 if variant == "sbb" else None)
                    for ki in inst.agents}
            first, last = inst.agents[0], inst.agents[-1]
            route = inst.links_of[first]

            def edit(ki, **change):
                profile = dict(good)
                msg = good[ki]
                profile[ki] = Message(change.get("y", msg.y), change.get("q", msg.q),
                                      change.get("rho", msg.rho))
                return profile

            cases.append((inst, variant, good))
            missing = dict(good)
            del missing[last]
            cases.append((inst, variant, missing))
            cases.append((inst, variant, edit(first, q={"nope": (0.0, 0.0)})))
            cases.append((inst, variant, edit(first, q={lid: (0.5, 0.5) for lid in route[1:]})))
            cases.append((inst, variant, edit(first, q={**good[first].q, "zz": (0.0, 0.0)})))
            for bad in (-1.0, nan, inf):
                cases.append((inst, variant, edit(first, y=bad)))
                cases.append((inst, variant, edit(last, q={**good[last].q,
                                                           inst.links_of[last][0]: (bad, 0.5)})))
                cases.append((inst, variant, edit(last, q={**good[last].q,
                                                           inst.links_of[last][-1]: (0.5, bad)})))
                if variant == "sbb":
                    cases.append((inst, variant, edit(last, rho=bad)))
            cases.append((inst, variant, edit(first, rho=None if variant == "sbb" else 1.0)))
            both = edit(last, y=-1.0)
            both[first] = Message(1.0, {lid: (nan, 0.5) for lid in route}, good[first].rho)
            cases.append((inst, variant, both))

    n_errors = 0
    for inst, variant, profile in cases:
        params = MechanismParams(variant=variant)
        try:
            expected = repr(reference_evaluate(inst, profile, params))
        except MessageShapeError:
            expected = _raised(reference_evaluate, inst, profile, params)
            assert _raised(evaluate, inst, profile, params) == expected
            n_errors += 1
        else:
            assert repr(evaluate(inst, profile, params)) == expected
    # every case but the unedited good profiles of the three valid instances fails
    assert n_errors == len(cases) - 6


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
def test_huge_quote_and_rho_gaps_price_to_inf(variant, symmetric_instance,
                                              two_member_instance):
    """A quote or rho gap past 1.3e154 squares to inf instead of raising
    OverflowError from a float power: validation accepts every finite quote,
    so the tax is +inf and the utility -inf, in evaluate and the evaluator."""
    params = MechanismParams(variant=variant)
    rho = 0.5 if variant == "sbb" else None
    for inst in (symmetric_instance, two_member_instance):
        ki = AgentId(1, 1)
        profile = {b: Message(1.0, {lid: (0.5, 0.5) for lid in inst.links_of[b]}, rho)
                   for b in inst.agents}
        profile[ki] = Message(1.0, {"l1": (1e160, 1e160)}, 1e160 if rho else None)
        out = evaluate(inst, profile, params)
        assert out.taxes[ki].total == math.inf
        assert DeviationEvaluator(inst, profile, params, ki).utility(profile[ki]) == -math.inf
    assert out.taxes[AgentId(1, 2)].per_link["l1"][1] == math.inf  # (q2 - 1e160)^2


def test_seq_sum_adds_left_to_right():
    """The sum every bit-for-bit agreement rests on: left to right from 0.0,
    with no compensation (builtin sum compensates from Python 3.12 on)."""
    assert seq_sum([0.1] * 10) == 0.9999999999999999
    assert seq_sum([1e100, 1.0, -1e100]) == 0.0
    assert seq_sum([]) == 0.0
    total = 0.0
    for v in np.random.default_rng(3).uniform(-1e3, 1e3, 200).tolist():
        total += v
    assert seq_sum(np.random.default_rng(3).uniform(-1e3, 1e3, 200).tolist()) == total
