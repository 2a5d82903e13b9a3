"""Equilibrium construction, certification, deviations, curvature, slopes."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcastmech import (
    LOG_SAT,
    AgentId,
    CandidateNE,
    MechanismParams,
    Message,
    allocate,
    br_dynamics,
    certify_ne,
    construct_ne,
    curvature_check,
    default_epsilon,
    evaluate,
    exact_best_response,
    instance_to_json,
    lemma_suite,
    random_instance,
    solve_cp,
    tune_params,
    utilities,
    zero_message,
)
from mcastmech.equilibrium import DEMAND_CAP, _piece, _quadratic, _top_eig
from mcastmech.cli import main as cli_main
from mcastmech.errors import DegenerateInstanceError, MessageShapeError, SharingAssumptionError
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator

from conftest import make_instance
from evaluate_reference import member_agents_on_link, neighbours
from finite_diff import displaced, exact_hessian, fd_hessian
from search import search_best_response

WBB = MechanismParams(variant="wbb")
SBB = MechanismParams(variant="sbb")
# The rounding share of 1 + |g| within which the rate model prices a rise of g; 150 draws
# per case of test_demand_slope_matches_finite_differences read at most 2.8e-15.
RISE_TOL = 1024.0 * np.finfo(float).eps


def constructed(instance, solved, params=WBB):
    primal, dual = solved
    return construct_ne(instance, primal, dual, params)


# ---------------------------------------------------------------------------
# construction


def test_construct_symmetric_values(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    for ki in symmetric_instance.agents:
        msg = cand.profile[ki]
        assert msg.y == pytest.approx(5.0, abs=1e-8)
        q1, q2 = msg.q["l1"]
        assert q1 == pytest.approx(1.0 / 6.0, abs=1e-8)
        # singleton group: the second quote is inert and mirrors the dual
        assert q2 == pytest.approx(1.0 / 6.0, abs=1e-8)
        assert msg.rho is None
    alloc = allocate(symmetric_instance, {ki: cand.profile[ki].y for ki in symmetric_instance.agents})
    assert alloc.r == pytest.approx(1.0, abs=1e-8)


def test_construct_two_member_quote_chain(two_member_instance, solved_two_member):
    cand = constructed(two_member_instance, solved_two_member)
    m11 = cand.profile[AgentId(1, 1)]
    m12 = cand.profile[AgentId(1, 2)]
    # second quote = successor's first quote (members 1 and 2 alternate)
    assert m11.q["l1"][1] == pytest.approx(m12.q["l1"][0], abs=1e-12)
    assert m12.q["l1"][1] == pytest.approx(m11.q["l1"][0], abs=1e-12)
    assert m11.q["l1"][0] == pytest.approx(0.125, abs=1e-7)
    assert cand.profile[AgentId(2, 1)].q["l1"][0] == pytest.approx(0.25, abs=1e-7)


def test_construct_reproduces_allocation(chain_instance):
    primal, dual = solve_cp(chain_instance, tol=1e-10)
    cand = construct_ne(chain_instance, primal, dual, WBB)
    out = evaluate(chain_instance, cand.profile, WBB)
    for ki in chain_instance.agents:
        assert out.x[ki] == pytest.approx(primal.x[ki], abs=1e-8)


def test_construct_sbb_sets_rho_to_one(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric, SBB)
    for ki in symmetric_instance.agents:
        assert cand.profile[ki].rho == pytest.approx(1.0, abs=1e-8)


def test_construct_refuses_without_a4(a4_fail_instance):
    primal, dual = solve_cp(a4_fail_instance, tol=1e-9)
    with pytest.raises(SharingAssumptionError):
        construct_ne(a4_fail_instance, primal, dual, WBB)


def test_construct_names_the_links_short_of_two_groups(symmetric_instance, solved_symmetric):
    """The refusal names exactly the links whose sharing count in
    dual.residuals is below 2: group 2's agent, starved at the optimum,
    leaves l2 and l3 with one demanding group while groups 1 and 3 share
    l1; and a count edited into the solve's report is the one read."""
    inst = make_instance({"l1": 10.0, "l2": 5.0, "l3": 4.0},
                         [(1, 1, LOG_SAT, 5.0, 1.0, {"l1": 1.0, "l2": 1.0, "l3": 1.0}),
                          (2, 1, LOG_SAT, 0.5, 0.1, {"l2": 1.0, "l3": 1.0}),
                          (3, 1, LOG_SAT, 5.0, 1.0, {"l1": 1.0})])
    primal, dual = solve_cp(inst, tol=1e-9)
    assert dual.residuals.s_sizes == {"l1": 2, "l2": 1, "l3": 1}
    with pytest.raises(SharingAssumptionError) as info:
        construct_ne(inst, primal, dual, WBB)
    assert str(info.value).endswith(" on: l2, l3")

    primal, dual = solved_symmetric
    edited = replace(dual, residuals=replace(dual.residuals, a4_holds=False, s_sizes={"l1": 1}))
    with pytest.raises(SharingAssumptionError) as info:
        construct_ne(symmetric_instance, primal, edited, WBB)
    assert str(info.value).endswith(" on: l1")


def test_default_epsilon_scales_with_value(symmetric_instance, solved_symmetric):
    primal, _ = solved_symmetric
    eps = default_epsilon(symmetric_instance, primal)
    assert eps == pytest.approx(1e-6 * np.log(6.0), rel=1e-6)


# ---------------------------------------------------------------------------
# lemma suite


def test_lemmas_at_constructed_wbb(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    report = lemma_suite(symmetric_instance, cand)
    for name, value in report.as_dict().items():
        assert value <= 1e-8, name
    assert report.wbb == 0.0


def test_lemmas_at_constructed_sbb(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric, SBB)
    report = lemma_suite(symmetric_instance, cand)
    assert report.sbb <= 1e-9
    assert report.rho_consensus <= 1e-9
    out = evaluate(symmetric_instance, cand.profile, SBB)
    assert out.total_tax == pytest.approx(0.0, abs=1e-12)


def test_lemma_equal_prices_on_arbitrary_profile(symmetric_instance):
    profile = {
        AgentId(1, 1): Message(1.0, {"l1": (0.9, 0.0)}),
        AgentId(2, 1): Message(1.0, {"l1": (0.4, 0.0)}),
    }
    cand = CandidateNE(profile=profile, params=WBB)
    report = lemma_suite(symmetric_instance, cand)
    assert report.equal_prices == pytest.approx(0.5)


def test_ir_holds_at_constructed(two_member_instance, solved_two_member):
    cand = constructed(two_member_instance, solved_two_member)
    report = lemma_suite(two_member_instance, cand)
    assert report.ir <= 1e-10
    u = utilities(two_member_instance, cand.profile, WBB)
    for ki in two_member_instance.agents:
        assert u[ki] >= -1e-10  # v(0) = 0 is the non-participation payoff


# ---------------------------------------------------------------------------
# best responses


def test_best_response_rejects_empty_budget(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    with pytest.raises(ValueError):
        exact_best_response(symmetric_instance, cand.profile, AgentId(1, 1), WBB, budget=0)


@pytest.mark.parametrize("fault", ["missing agent", "wrong link", "sbb without rho",
                                   "nan demand", "negative quote", "rho under wbb",
                                   "extra agent"])
def test_every_profile_reader_raises_as_evaluate(two_member_instance, fault):
    """certify_ne, curvature_check, exact_best_response, DeviationEvaluator
    and br_dynamics check the profile they read as evaluate does, raising
    its MessageShapeError with its message, where a missing agent or a
    wrong link key raised KeyError, a missing SBB rho TypeError, and a NaN
    demand, a negative quote or a rho under WBB ran to a result. An entry
    for an agent the instance lacks (with a NaN demand and an unknown link)
    is refused too, where evaluate priced the instance's agents."""
    inst, ki, last = two_member_instance, AgentId(1, 1), AgentId(2, 1)
    params = SBB if fault == "sbb without rho" else WBB
    rho = 0.5 if params is SBB else None
    profile = {b: Message(1.0, {"l1": (0.5, 0.5)}, rho) for b in inst.agents}
    if fault == "missing agent":
        del profile[last]
    elif fault == "wrong link":
        profile[last] = Message(1.0, {"l2": (0.5, 0.5)})
    elif fault == "sbb without rho":
        profile[last] = Message(1.0, {"l1": (0.5, 0.5)})
    elif fault == "nan demand":
        profile[last] = Message(float("nan"), {"l1": (0.5, 0.5)})
    elif fault == "negative quote":
        profile[last] = Message(1.0, {"l1": (-0.5, 0.5)})
    elif fault == "rho under wbb":
        profile[last] = Message(1.0, {"l1": (0.5, 0.5)}, 1.0)
    else:
        profile[AgentId(9, 9)] = Message(float("nan"), {"zz": (-0.5, 0.5)})
    with pytest.raises(MessageShapeError) as info:
        evaluate(inst, profile, params)
    expected = str(info.value)
    assert fault != "extra agent" or expected.endswith("not in the instance: 9.9")
    candidate = CandidateNE(profile, params)
    for read in (lambda: certify_ne(inst, candidate, 1e-6),
                 lambda: curvature_check(inst, candidate),
                 lambda: exact_best_response(inst, profile, ki, params),
                 lambda: DeviationEvaluator(inst, profile, params, ki),
                 lambda: br_dynamics(inst, profile, params, rounds=1)):
        with pytest.raises(MessageShapeError) as info:
            read()
        assert str(info.value) == expected


def test_unknown_deviator_is_a_message_shape_error():
    """DeviationEvaluator and exact_best_response name a deviator the
    instance lacks in a MessageShapeError, where index() raised ValueError."""
    inst, ki = random_instance(3, 2, 1, 1), AgentId(9, 9)
    profile = {b: Message(1.0, {lid: (0.5, 0.5) for lid in inst.links_of[b]})
               for b in inst.agents}
    for read in (lambda: DeviationEvaluator(inst, profile, WBB, ki),
                 lambda: exact_best_response(inst, profile, ki, WBB)):
        with pytest.raises(MessageShapeError, match="agent 9.9 is not in the instance"):
            read()


def test_quote_mismatch_deviation_gain(two_member_instance, solved_two_member):
    """Restoring the successor-quote match recovers the squared mismatch."""
    cand = constructed(two_member_instance, solved_two_member)
    ki = AgentId(1, 1)
    profile = {b: m.copy() for b, m in cand.profile.items()}
    q1, q2 = profile[ki].q["l1"]
    profile[ki] = Message(profile[ki].y, {"l1": (q1, q2 + 0.5)})
    res = exact_best_response(two_member_instance, profile, ki, WBB, budget=1500)
    assert res.gain == pytest.approx(0.25, abs=1e-6)
    succ_quote = profile[AgentId(1, 2)].q["l1"][0]
    assert res.message.q["l1"][1] == pytest.approx(succ_quote, abs=1e-4)


def test_slack_link_price_deviation_gain(slack_instance, solved_slack):
    """Overpricing a slack link costs exactly the squared coherence gap."""
    cand = constructed(slack_instance, solved_slack)
    ki = AgentId(1, 1)
    profile = {b: m.copy() for b, m in cand.profile.items()}
    q = dict(profile[ki].q)
    assert q["l2"][0] == pytest.approx(0.0, abs=1e-9)  # slack dual is zero
    q["l2"] = (0.1, q["l2"][1])
    profile[ki] = Message(profile[ki].y, q)
    res = exact_best_response(slack_instance, profile, ki, WBB, budget=1500)
    assert res.gain == pytest.approx(0.01, abs=1e-6)
    assert res.message.q["l2"][0] == pytest.approx(0.0, abs=1e-4)


def test_certify_constructed_wbb(symmetric_instance, solved_symmetric):
    primal, _ = solved_symmetric
    cand = constructed(symmetric_instance, solved_symmetric)
    eps = default_epsilon(symmetric_instance, primal)
    report = certify_ne(symmetric_instance, cand, eps, budget=800, restarts=8, seed=0)
    assert report.certified
    assert report.max_gain <= eps
    assert set(report.gains) == set(symmetric_instance.agents)


def test_truncated_search_is_not_certified(two_member_instance, solved_two_member):
    """Group 1's members see two pieces of g (their demand kinks where it
    meets the mate's peak), so certifying them takes 5 evaluations: the
    incumbent, one rate-model read per piece, g at DEMAND_CAP, and g at
    one near-best point of the piece models (the root just left of the
    kink; the kink, at the incumbent demand to rounding, lies within
    KINK_TOL of it and is not priced again). A budget of 4 cuts them
    short: their gains stay below epsilon, yet the candidate is not
    certified and the report names them."""
    primal, _ = solved_two_member
    cand = constructed(two_member_instance, solved_two_member)
    eps = default_epsilon(two_member_instance, primal)
    group_1 = [AgentId(1, 1), AgentId(1, 2)]
    for ki in group_1:
        assert len(exact_best_response(two_member_instance, cand.profile, ki, WBB).pieces) == 2
        assert not exact_best_response(two_member_instance, cand.profile, ki, WBB,
                                       budget=4).complete
    report = certify_ne(two_member_instance, cand, eps, budget=4)
    assert report.max_gain <= eps
    assert report.certified is False
    assert set(group_1) <= set(report.incomplete)
    assert set(report.as_dict()["incomplete"]) >= {"1.1", "1.2"}
    full = certify_ne(two_member_instance, cand, eps)
    assert full.certified and full.incomplete == []


def test_certify_is_deterministic(symmetric_instance, solved_symmetric):
    primal, _ = solved_symmetric
    cand = constructed(symmetric_instance, solved_symmetric)
    eps = default_epsilon(symmetric_instance, primal)
    a = certify_ne(symmetric_instance, cand, eps, budget=400, restarts=4, seed=11)
    b = certify_ne(symmetric_instance, cand, eps, budget=400, restarts=4, seed=11)
    assert a.gains == b.gains
    assert a.evals == b.evals


def test_perturbed_price_breaks_certification(two_member_instance, solved_two_member):
    primal, _ = solved_two_member
    cand = constructed(two_member_instance, solved_two_member)
    ki = AgentId(2, 1)
    q1, q2 = cand.profile[ki].q["l1"]
    cand.profile[ki] = Message(cand.profile[ki].y, {"l1": (q1 + 0.1, q2)})
    eps = default_epsilon(two_member_instance, primal)
    report = certify_ne(two_member_instance, cand, eps, budget=800, restarts=6, seed=1)
    assert not report.certified
    assert report.max_gain >= 1e-3


def test_zero_profile_not_an_equilibrium(symmetric_instance):
    profile = {ki: zero_message(symmetric_instance, ki, "wbb") for ki in symmetric_instance.agents}
    cand = CandidateNE(profile=profile, params=WBB)
    report = certify_ne(symmetric_instance, cand, epsilon=1e-6, budget=600, restarts=6, seed=2)
    assert not report.certified
    assert report.max_gain > 0.1  # demanding is free at zero prices


def test_closed_form_gains_to_rounding(two_member_instance, solved_two_member,
                                       slack_instance, solved_slack,
                                       symmetric_instance, solved_symmetric):
    """The exact best response recovers each closed-form gain to rounding:
    a second quote 0.5 off the successor's first quote (0.5^2), a first
    quote 0.1 above a zero rival price on a slack link (0.1^2), and under
    SBB a first quote raised by 2.5 (2.5^2)."""
    def planted(inst, solved, params, ki, lid, dq1, dq2):
        profile = {b: m.copy() for b, m in constructed(inst, solved, params).profile.items()}
        q = dict(profile[ki].q)
        q[lid] = (q[lid][0] + dq1, q[lid][1] + dq2)
        profile[ki] = Message(profile[ki].y, q, profile[ki].rho)
        return exact_best_response(inst, profile, ki, params).gain

    ki = AgentId(1, 1)
    assert abs(planted(two_member_instance, solved_two_member, WBB, ki, "l1", 0.0, 0.5)
               - 0.25) <= 1e-12
    assert abs(planted(slack_instance, solved_slack, WBB, ki, "l2", 0.1, 0.0)
               - 0.01) <= 1e-12
    assert abs(planted(symmetric_instance, solved_symmetric, SBB, ki, "l1", 2.5, 0.0)
               - 6.25) <= 1e-12


def _replayed(inst, params):
    """The candidate profile read off the solution as construct_ne does,
    without its checks, so the instance that fails A4 gets one too."""
    primal, dual = solve_cp(inst, tol=1e-10)
    r = allocate(inst, primal.x).r
    succ, _ = neighbours(inst)
    return {ki: Message(primal.x[ki],
                        {lid: (dual.mu[(ki, lid)], dual.mu[(succ[(ki, lid)], lid)])
                         for lid in inst.links_of[ki]},
                        r if params.variant == "sbb" else None)
            for ki in inst.agents}


def _closed_form_message(inst, profile, params, ki, msg):
    """The best quotes and rho at msg.y, recomputed from evaluate() on the
    profile with ki's message replaced by msg: q2 is the successor's q1
    (kept for a singleton), rho is r, and q1 the clipped stationary point
    of slots 3-5. Returns the message and, per link, whether q1 is clipped."""
    patched = dict(profile)
    patched[ki] = msg
    out = evaluate(inst, patched, params)
    k, x = ki.group, out.x[ki]
    succ, pred = neighbours(inst)
    q, clipped = {}, {}
    for lid in inst.links_of[ki]:
        mates = [b for b in member_agents_on_link(inst)[(k, lid)] if b != ki]
        wb = out.w_bar[(k, lid)]
        pf = profile[pred[(ki, lid)]].q[lid][1] if mates else wb
        slack = inst.capacity[lid] - sum(out.m[(g, lid)] for g in inst.groups_on_link[lid])
        raw = (wb - sum(profile[b].q[lid][0] for b in mates)
               - (params.eta * pf * (out.m[(k, lid)] - inst.alpha[(ki, lid)] * x)
                  + params.xi * wb * slack) / 2.0)
        clipped[lid] = raw < 0.0
        q2 = profile[succ[(ki, lid)]].q[lid][0] if mates else msg.q[lid][1]
        q[lid] = (max(0.0, raw), q2)
    return Message(msg.y, q, out.r if params.variant == "sbb" else None), clipped


def test_best_message_matches_closed_forms(two_member_instance):
    """Both branches of q1: a rival price above the group-mate's quote
    leaves an interior optimum, one below it clips q1 at zero. Each
    quote and rho is a maximum: moving it either way lowers utility."""
    inst, ki, mate = two_member_instance, AgentId(1, 1), AgentId(1, 2)
    for params in (WBB, SBB):
        rho = 0.7 if params.variant == "sbb" else None
        seen = set()
        for mate_q1 in (0.05, 0.9):
            profile = {ki: Message(2.0, {"l1": (0.3, 0.4)}, rho),
                       mate: Message(3.0, {"l1": (mate_q1, 0.2)}, rho),
                       AgentId(2, 1): Message(4.0, {"l1": (0.5, 0.1)}, rho)}
            ev = DeviationEvaluator(inst, profile, params, ki)
            for y in (0.0, 1.0, 2.0, 6.0):
                best = ev.best_message(y, profile[ki])
                want, clipped = _closed_form_message(inst, profile, params, ki, best)
                seen.add(clipped["l1"])
                q1, q2 = best.q["l1"]
                assert q1 == pytest.approx(want.q["l1"][0], abs=1e-14)
                assert q2 == want.q["l1"][1] == profile[mate].q["l1"][0]
                assert best.rho == want.rho
                u = ev.utility(best)
                for h in (-1e-3, 1e-3):
                    moves = [Message(y, {"l1": (q1 + h, q2)}, best.rho),
                             Message(y, {"l1": (q1, q2 + h)}, best.rho)]
                    if rho is not None:
                        moves.append(Message(y, {"l1": (q1, q2)}, best.rho + h))
                    for m in moves:
                        if min(m.q["l1"]) >= 0.0:
                            assert ev.utility(m) < u
        assert seen == {False, True}


def test_best_demand_at_an_offer_crossing():
    """On this seeded off-equilibrium profile agent 1.3's best demand is
    where its route's offer crosses the offer of a link off its route, a
    kink of g where a search inside either piece stops about 3e-12 short;
    the kink is a piece end, where g rises on the left and falls on the
    right, so the best response sits on it exactly."""
    inst = random_instance(245, n_groups=3, max_group_size=3, n_links=3)
    rng = np.random.default_rng(245)
    cap = max(inst.capacity.values())
    profile = {}
    for b in inst.agents:
        q = {lid: (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
             for lid in inst.links_of[b]}
        profile[b] = Message(0.0 if rng.random() < 0.15 else float(rng.uniform(0, 2 * cap)), q)
    ki = AgentId(1, 3)
    res = exact_best_response(inst, profile, ki, WBB)
    ev = DeviationEvaluator(inst, profile, WBB, ki)
    kinks, _ = ev.demand_kinks()
    assert res.message.y in kinks
    offers = sorted(allocate(inst, {**{b: m.y for b, m in profile.items()},
                                    ki: res.message.y}).r_per_link.values())
    assert offers[1] == pytest.approx(offers[0], rel=1e-12)  # two links bind
    for y in (res.message.y * (1 - 1e-9), res.message.y * (1 + 1e-9)):
        assert ev.utility(ev.best_message(y, profile[ki])) < res.best_utility


def _scan_best(ev, msg, ys):
    return max(ev.utility(ev.best_message(float(y), msg)) for y in ys)


def test_best_demand_in_a_bump_next_to_a_kink(two_member_instance):
    """Agent 1.2's g rises to a maximum near y = 6.98046, just left of the
    kink at 6.986328125 where it overtakes its group-mate's peak, and falls
    into the kink: the exact left slope there is negative, so the root of
    g' on the piece before the kink is the maximum."""
    inst, ki = two_member_instance, AgentId(1, 2)
    kink = 6.986328125
    profile = {AgentId(1, 1): Message(kink, {"l1": (0.25, 0.125)}),
               ki: Message(7.0, {"l1": (0.125, 0.125)}),
               AgentId(2, 1): Message(3.0, {"l1": (0.25, 0.25)})}
    ev = DeviationEvaluator(inst, profile, WBB, ki)
    assert ev.local_model(ev.best_message(kink, profile[ki]), -1).grad[0] < 0.0
    res = exact_best_response(inst, profile, ki, WBB)
    scan = _scan_best(ev, profile[ki], np.linspace(6.97, kink, 4001))
    assert res.message.y < kink
    assert res.best_utility >= scan - 1e-12 * (1.0 + abs(scan))


def test_best_demand_decades_between_samples(a4_fail_instance):
    """Agent 1.1 at its candidate, agent 2.1 idle with its first quote
    raised by 1e-6: g peaks near y = 4.1e5, decades past the scales of the
    instance, where a search in linear y would put every probe in the top
    decades; Newton steps in log y find the peak."""
    inst, ki, rival = a4_fail_instance, AgentId(1, 1), AgentId(2, 1)
    profile = _replayed(inst, WBB)
    q1, q2 = profile[rival].q["l1"]
    profile[rival] = Message(0.0, {"l1": (q1 + 1e-6, q2)})
    ev = DeviationEvaluator(inst, profile, WBB, ki)
    res = exact_best_response(inst, profile, ki, WBB)
    scan = _scan_best(ev, profile[ki], np.geomspace(1e5, 1e6, 4001))
    assert 1e5 < res.message.y < 1e6
    assert res.best_utility >= scan - 1e-12 * (1.0 + abs(scan))


def _drawn_profile(data, candidate):
    """The candidate or, half the time, a copy with every demand, quote and
    rho scaled by 1, 0 or U[0.5, 2] and every first quote raised by U[0, 0.2]."""
    profile = {b: m.copy() for b, m in candidate.items()}
    if data.draw(st.booleans()):
        factor = st.one_of(st.just(1.0), st.just(0.0), st.floats(0.5, 2.0))
        for b, m in candidate.items():
            q = {lid: (data.draw(factor) * q1 + data.draw(st.floats(0.0, 0.2)),
                       data.draw(factor) * q2)
                 for lid, (q1, q2) in m.q.items()}
            rho = None if m.rho is None else data.draw(factor) * m.rho
            profile[b] = Message(data.draw(factor) * m.y, q, rho)
    return profile


XCHECK_INSTANCES = ("symmetric_instance", "oracle_instance", "slack_instance",
                    "two_member_instance", "chain_instance", "three_group_instance",
                    "a4_fail_instance", "saturated_instance", "random-5", "random-11")


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("name", XCHECK_INSTANCES)
def test_exact_best_response_cross_check(name, variant, request):
    """At the candidate and at perturbed profiles: (1) the multi-start
    coordinate search never beats exact_best_response by more than
    1e-12 * (1 + |u|); (2) the returned message, re-evaluated through
    utilities() on the patched profile, gives best_utility exactly, and
    the gain is best_utility - base_utility; (3) when the gain is
    positive, its quotes and rho are the closed forms at its demand."""
    if name.startswith("random"):
        inst = random_instance(int(name.split("-")[1]), n_groups=3, max_group_size=3,
                               n_links=3)
    else:
        inst = request.getfixturevalue(name)
    params = MechanismParams(variant=variant)
    candidate = _replayed(inst, params)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def check(data):
        ki = data.draw(st.sampled_from(inst.agents))
        profile = _drawn_profile(data, candidate)
        res = exact_best_response(inst, profile, ki, params)
        assert res.gain >= 0.0
        assert res.gain == res.best_utility - res.base_utility
        patched = dict(profile)
        patched[ki] = res.message
        assert utilities(inst, patched, params)[ki] == res.best_utility
        if res.gain > 0.0:
            want, _ = _closed_form_message(inst, profile, params, ki, res.message)
            for lid, (q1, q2) in res.message.q.items():
                assert q1 == pytest.approx(want.q[lid][0], abs=1e-12 * (1.0 + abs(q1)))
                assert q2 == want.q[lid][1]
            assert res.message.rho == want.rho
        found = search_best_response(inst, profile, ki, params, budget=600, restarts=4,
                                     seed=data.draw(st.integers(0, 2**16)))
        assert found.best_utility <= res.best_utility + 1e-12 * (1.0 + abs(res.best_utility))

    check()


@pytest.mark.parametrize("name", XCHECK_INSTANCES)
def test_best_response_calls_best_message_only_for_g(name, request, monkeypatch):
    """Inside exact_best_response every best_message call is an evaluation
    of g, priced by the next utility call: the pieces end at closed-form
    clip points, so no call only reads whether a quote clips."""
    if name.startswith("random"):
        inst = random_instance(int(name.split("-")[1]), n_groups=3, max_group_size=3,
                               n_links=3)
    else:
        inst = request.getfixturevalue(name)
    calls = []
    for method in ("best_message", "utility"):
        real = getattr(DeviationEvaluator, method)
        monkeypatch.setattr(DeviationEvaluator, method,
                            lambda self, *args, real=real, method=method:
                            calls.append(method) or real(self, *args))
    rng = np.random.default_rng(5)
    for variant in ("wbb", "sbb"):
        params = MechanismParams(variant=variant)
        candidate = _replayed(inst, params)
        for profile in (candidate, {b: Message(m.y * float(rng.uniform(0.5, 2.0)), m.q, m.rho)
                                    for b, m in candidate.items()}):
            for ki in inst.agents:
                del calls[:]
                exact_best_response(inst, profile, ki, params)
                assert calls[0] == "utility"  # the incumbent
                assert calls[1:] == ["best_message", "utility"] * (len(calls) // 2)


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("name", XCHECK_INSTANCES)
def test_local_model_matches_finite_differences(name, variant, request):
    """At the candidate and at perturbed profiles, on each side of the
    demand, local_model's gradient and its Hessian with U_x*x'' added
    (exact_hessian: away from a stationary demand local_model's, in the
    rate, leaves it out) match finite differences of
    DeviationEvaluator.utility (the Hessian's one-sided in the demand
    and central in the quotes and rho, the gradient's one-sided to third
    order), wherever no kink of the allocation lies within the demand
    stencil."""
    if name.startswith("random"):
        inst = random_instance(int(name.split("-")[1]), n_groups=3, max_group_size=3,
                               n_links=3)
    else:
        inst = request.getfixturevalue(name)
    params = MechanismParams(variant=variant)
    candidate = _replayed(inst, params)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def check(data):
        ki = data.draw(st.sampled_from(inst.agents))
        side = data.draw(st.sampled_from([+1, -1]))
        profile = _drawn_profile(data, candidate)
        msg = profile[ki]
        if side < 0 and msg.y == 0.0:
            side = +1
        ev = DeviationEvaluator(inst, profile, params, ki)
        model = ev.local_model(msg, side)
        h = [1e-4 * max(1.0, abs(v)) for v in model.point]
        kinks = [0.0, *ev.demand_kinks()[0]]
        assume(not model.jumped)
        assume(not any(KINK_TOL * msg.y < side * (k - msg.y) <= 4.0 * h[0] for k in kinks))
        f0 = ev.utility(msg)
        H = fd_hessian(ev, msg, ev.coords, h, [side] + [0] * (len(h) - 1))
        assert np.allclose(exact_hessian(ev, model, side), H, rtol=1e-4,
                           atol=1e-5 * (1.0 + abs(f0)))
        # third-order one-sided differences: a second-order stencil's error
        # reached the rtol at y = 0, where the demand curves the most
        grad = [(18.0 * ev.utility(displaced(msg, [(c, side * hj)]))
                 - 9.0 * ev.utility(displaced(msg, [(c, 2.0 * side * hj)]))
                 + 2.0 * ev.utility(displaced(msg, [(c, 3.0 * side * hj)])) - 11.0 * f0)
                / (6.0 * side * hj) for c, hj in zip(ev.coords, h)]
        assert np.allclose(model.grad, grad, rtol=1e-5, atol=1e-7 * (1.0 + abs(f0)))

    check()


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("name", XCHECK_INSTANCES)
def test_demand_slope_matches_finite_differences(name, variant, request):
    """At the candidate and at perturbed profiles, inside a random piece
    [a, b] of g(y) = utility(best_message(y)) and away from its ends, the
    rate model read at a (DeviationEvaluator.rate_model) prices the rise of
    g: g(y) - g(a) equals h(x(y)) - h(x(a)), h = V + A*x^2 + B*x, within
    RISE_TOL * (1 + |g(y)|), and its free set at x(y) is the set of first
    quotes that best_message(y) leaves positive."""
    if name.startswith("random"):
        inst = random_instance(int(name.split("-")[1]), n_groups=3, max_group_size=3,
                               n_links=3)
    else:
        inst = request.getfixturevalue(name)
    params = MechanismParams(variant=variant)
    candidate = _replayed(inst, params)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def check(data):
        ki = data.draw(st.sampled_from(inst.agents))
        profile = _drawn_profile(data, candidate)
        pieces = exact_best_response(inst, profile, ki, params).pieces
        a, b, _, _ = data.draw(st.sampled_from(pieces))
        lo = a if a > 0.0 else b * 1e-6
        y = float(np.exp(np.log(lo) + data.draw(st.floats(0.05, 0.95)) * np.log(b / lo)))
        assume(lo + 2e-3 * y < y < b - 2e-3 * y)
        ev = DeviationEvaluator(inst, profile, params, ki)
        (c, rest, a_e), links = ev.rate_model(a)
        xa, xy = c * a / (rest + a_e * a), c * y / (rest + a_e * y)
        A, B, free = _quadratic(links, xy)
        best = ev.best_message(y, profile[ki])
        assert free == [q1 > 0.0 for q1, _ in best.q.values()]

        def h(x):
            return ev.valuation.value(x) + (A * x + B) * x

        g_y = ev.utility(best)
        rise = g_y - ev.utility(ev.best_message(a, profile[ki]))
        assert rise == pytest.approx(h(xy) - h(xa), rel=0.0, abs=RISE_TOL * (1.0 + abs(g_y)))

    check()


def test_demand_slope_far_past_the_knees(symmetric_instance):
    """From the zero profile, agent 1.1 is the lone demanding group, so
    r = 10/(y + 1) and x' = 10/(y + 1)^2, a sliver of r once y is far past
    the knee at 1; the rival quotes nothing, so pf = wb = 0 and
    g' = V'(x)*x' with V'(x) = 1/(1 + x). Written as r + y*r', x' read 0.0
    at 1e31 and -1.8e-170 at 1e155; the slope g'(a+) of a piece starting
    there, read from the rate model (_piece), matches the exact value to
    1e-12 (at 1e155 it is subnormal, exact to 5e-14)."""
    inst = symmetric_instance
    profile = {ki: zero_message(inst, ki, "wbb") for ki in inst.agents}
    ev = DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))
    for y in (1e31, 1e155):
        d1 = _piece(ev.valuation, y, DEMAND_CAP, ev.rate_model(y))[0][2]
        r = Fraction(10) / (Fraction(y) + 1)
        exact = r / (Fraction(y) + 1) / (1 + r * Fraction(y))
        assert d1 > 0.0
        assert d1 == pytest.approx(float(exact), rel=1e-12)


# ---------------------------------------------------------------------------
# the SBB redistribution rebate is priced by the other agents only


def test_sbb_rebate_leak_closed_form(symmetric_instance, solved_symmetric):
    """Raising the first quote cannot buy a larger rebate: on this instance
    utility moves by exactly -d^2, the coherence term t3 alone (t4 = 0
    because m = alpha * x for a singleton, t5 = 0 because the link is full,
    and the rebate holds no message of the deviator)."""
    cand = constructed(symmetric_instance, solved_symmetric, SBB)
    ki = AgentId(1, 1)
    ev = DeviationEvaluator(symmetric_instance, {b: m.copy() for b, m in cand.profile.items()}, SBB, ki)
    base_msg = cand.profile[ki]
    u0 = ev.utility(base_msg.copy())
    for delta in (1.0, 2.5):
        q1, q2 = base_msg.q["l1"]
        trial = Message(base_msg.y, {"l1": (q1 + delta, q2)}, base_msg.rho)
        gain = ev.utility(trial) - u0
        assert gain == pytest.approx(-delta**2, abs=1e-9)


def test_sbb_certification_finds_the_leak(symmetric_instance, solved_symmetric):
    """The SBB candidate is certified, and the same best response does
    find a planted deviation: after agent 1.1 raises q1 by 2.5, returning
    to the candidate quote gains exactly 2.5^2."""
    primal, _ = solved_symmetric
    cand = constructed(symmetric_instance, solved_symmetric, SBB)
    eps = default_epsilon(symmetric_instance, primal)
    report = certify_ne(symmetric_instance, cand, eps, budget=1000, restarts=8, seed=0)
    assert report.certified
    assert report.max_gain <= eps

    ki = AgentId(1, 1)
    profile = {b: m.copy() for b, m in cand.profile.items()}
    q1, q2 = profile[ki].q["l1"]
    profile[ki] = Message(profile[ki].y, {"l1": (q1 + 2.5, q2)}, profile[ki].rho)
    res = exact_best_response(symmetric_instance, profile, ki, SBB, budget=1000)
    assert res.gain == pytest.approx(6.25, abs=1e-6)


def test_sbb_rho_bar_holds_no_own_rho(three_group_instance):
    """Agent 1.1's rival rho mean is the other two rhos' mean bit for bit,
    whatever its own rho (the total minus its own rho lost digits at
    1e8 and read 0 at 1e16), and the evaluator agrees with utilities()."""
    inst, ki = three_group_instance, AgentId(1, 1)
    seen = set()
    for rho in (1.0, 1e8, 1e16):
        profile = {ki: Message(1.0, {"l1": (0.3, 0.2)}, rho),
                   AgentId(2, 1): Message(2.0, {"l1": (0.2, 0.1)}, 0.3),
                   AgentId(3, 1): Message(3.0, {"l1": (0.4, 0.3)}, 0.5)}
        seen.add(evaluate(inst, profile, SBB).rho_bar[ki])
        ev = DeviationEvaluator(inst, profile, SBB, ki)
        assert ev.utility(profile[ki]) == utilities(inst, profile, SBB)[ki]
    assert seen == {(0.5 + 0.3) / 2}


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_guards(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    with pytest.raises(ValueError):
        br_dynamics(symmetric_instance, cand.profile, WBB, rounds=0)


def test_dynamics_fixed_point_at_ne(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    result = br_dynamics(
        symmetric_instance, cand.profile, WBB, rounds=5, epsilon=1e-7, budget=400
    )
    assert result.fixed_point
    assert result.rounds_run == 1
    assert len(result.rows) == len(symmetric_instance.agents)


def test_dynamics_truncated_round_is_no_fixed_point(symmetric_instance, solved_symmetric):
    """At the candidate no best response gains, but one cut short by its
    budget certifies nothing, so the run stops without a fixed point."""
    cand = constructed(symmetric_instance, solved_symmetric)
    result = br_dynamics(symmetric_instance, cand.profile, WBB, rounds=5, budget=3)
    assert result.rounds_run == 1
    assert not result.fixed_point


def test_dynamics_rows_schema_and_feasibility(symmetric_instance):
    start = {ki: zero_message(symmetric_instance, ki, "wbb") for ki in symmetric_instance.agents}
    result = br_dynamics(symmetric_instance, start, WBB, rounds=3, budget=250)
    assert 1 <= result.rounds_run <= 3
    assert len(result.rows) == result.rounds_run * len(symmetric_instance.agents)
    for row in result.rows:
        assert set(row) == {"round", "agent", "y", "x", "tax", "gain", "feasible"}
        assert row["feasible"] is True


@pytest.mark.parametrize("name", ["symmetric_instance", "chain_instance"],
                         ids=lambda name: f"{name}-gauss-seidel")  # the one schedule
def test_dynamics_at_the_demand_cap_is_no_fixed_point(name, request):
    """From the zero profile the demands drift up to the demand grid's cap,
    where every best response is cut off by the grid: the gains vanish
    there, but that is no fixed point."""
    inst = request.getfixturevalue(name)
    start = {ki: zero_message(inst, ki, "wbb") for ki in inst.agents}
    result = br_dynamics(inst, start, WBB, rounds=30)
    assert min(m.y for m in result.final_profile.values()) > 1e299
    assert not result.fixed_point


# ---------------------------------------------------------------------------
# curvature


def test_curvature_passes_with_default_params(symmetric_instance, solved_symmetric):
    cand = constructed(symmetric_instance, solved_symmetric)
    report = curvature_check(symmetric_instance, cand)
    assert report.all_pass
    for ki, agent in report.agents.items():
        for label, diag in agent.price_diag.items():
            assert diag == pytest.approx(-2.0, abs=1e-4), (ki, label)


def test_curvature_reads_each_side_of_a_peak_tie(oracle_instance, solved_oracle):
    """Agent 1.1 rides its group's peak at the oracle optimum, so its
    demand sits on a kink. Right of it r = 6/(1 + y): x' = 1/6, and with
    q1 = pf and w = w_bar the yy entry in the rate is V''x'^2 = -1/1296
    while y decouples from the quotes, so the right-hand Hessian's top
    eigenvalue is -1/1296 (a central difference averages it with the left
    side's -1/36). The demand is stationary there, U_x = V' - pf = 0, so
    the exact yy entry, which adds U_x*x'' (x'' = -1/18), is the same."""
    cand = constructed(oracle_instance, solved_oracle)
    agent = curvature_check(oracle_instance, cand).agents[AgentId(1, 1)]
    assert agent.kinked
    assert agent.passed
    assert agent.max_eig == pytest.approx(-1.0 / 1296.0, rel=1e-9)


def test_local_models_reread_the_clip_test_off_a_tie(two_member_instance):
    """Agent 1.1 demands below its mate's peak on the one link, so the piece
    form has no tie and local_models derives the left model from the right
    one. At the demand where its first quote's clip root lies (2k = F on
    rate_model's piece) the quote is free on the right and locked on the
    left, and the derived left model is local_model(msg, -1) bit for bit."""
    profile = {AgentId(1, 1): Message(1.0, {"l1": (0.3, 0.3)}),
               AgentId(1, 2): Message(2.0, {"l1": (0.295, 0.3)}),
               AgentId(2, 1): Message(3.0, {"l1": (0.3, 0.3)})}
    ev = DeviationEvaluator(two_member_instance, profile, WBB, AgentId(1, 1))
    (c, rest, a_e), [(k, f0, f1, _)] = ev.rate_model(1.0)
    x = (2.0 * k - f0) / f1
    msg = Message(x * rest / (c - a_e * x), {"l1": (0.3, 0.3)})
    assert 0.0 < msg.y < 2.0 and not ev._rate_form(msg.y, +1)[2]
    right, left = ev.local_models(msg)
    assert left.hess is right.hess
    assert right.free.tolist() == [True, True, True] and left.free.tolist() == [True, False, True]
    assert ([np.asarray(f).tobytes() for f in left]
            == [np.asarray(f).tobytes() for f in ev.local_model(msg, -1)])


def test_eigen_kernel_is_numpys_eigvalsh():
    """The curvature gate's eigen solve (_top_eig, LAPACK's syevd called
    directly) equals np.linalg.eigvalsh(H)[-1] bit for bit on symmetric
    matrices of 1 to 16 rows, three each: a dense one, a semidefinite one
    and an arrowhead with local_model's quote diagonal (-2, and -2*zeta
    last, at the default zeta). On a matrix holding a NaN, eigvalsh returns values (numpy
    2.4.6), and the kernel returns the same; where eigvalsh raises
    LinAlgError on an infinite entry, so does the kernel."""
    rng = np.random.default_rng(32)
    for n in range(1, 17):
        G = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, n)
        arrow = np.diag([rng.normal()] + [-2.0] * (n - 2) + [-2.0 * MechanismParams().zeta] * (n > 1))
        arrow[0, 1:] = arrow[1:, 0] = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 1)
        for H in (G + G.T, G @ G.T, arrow):
            assert _top_eig(H).hex() == float(np.linalg.eigvalsh(H)[-1]).hex()
    H = np.array([[np.nan, 1.0], [1.0, 2.0]])
    assert _top_eig(H).hex() == float(np.linalg.eigvalsh(H)[-1]).hex()
    H = np.array([[-2.6, 1.0, -2.4], [1.0, np.inf, -0.4], [-2.4, -0.4, -2.2]])
    for solve in (np.linalg.eigvalsh, _top_eig):
        with pytest.raises(np.linalg.LinAlgError):
            solve(H)


def test_curvature_handles_peak_tie_kinks(two_member_instance, solved_two_member):
    cand = constructed(two_member_instance, solved_two_member)
    report = curvature_check(two_member_instance, cand)
    assert report.all_pass
    # both group-1 members sit exactly on the group peak: one-sided probes
    assert report.agents[AgentId(1, 1)].kinked
    assert report.agents[AgentId(1, 2)].kinked


def test_local_model_at_huge_demands(two_member_instance):
    """With every demand at 1e200, x' is about 1e-200, so the demand
    entry U_xx*x'^2 underflows to 0, and the one-sided models and the
    curvature check stay finite."""
    inst = two_member_instance
    profile = {ki: Message(1e200, {"l1": (0.1, 0.1)}) for ki in inst.agents}
    report = curvature_check(inst, CandidateNE(profile, WBB))
    assert all(np.isfinite(a.max_eig) for a in report.agents.values())
    for ki in inst.agents:
        ev = DeviationEvaluator(inst, profile, WBB, ki)
        for side in (+1, -1):
            model = ev.local_model(profile[ki], side)
            assert np.isfinite(model.grad).all() and np.isfinite(model.hess).all()
            assert not model.jumped


def test_inflated_eta_fails_honestly(two_member_instance, solved_two_member, tmp_path, capsys):
    """At eta = 10 the candidate is no equilibrium of the mechanism asked
    for: both group-1 members' own-utility Hessians are indefinite (top
    eigenvalue 0.588) and the best response gains 0.423, far above
    epsilon. tune_params raises DegenerateInstanceError rather than
    certifying at smaller weights, and certify --eta 10 exits 5."""
    inst = two_member_instance
    primal, dual = solved_two_member
    loud = MechanismParams(eta=10.0, xi=0.01, zeta=0.01, variant="wbb")
    candidate = construct_ne(inst, primal, dual, loud)
    report = curvature_check(inst, candidate)
    assert [ki for ki, a in report.agents.items() if not a.passed] == [AgentId(1, 1),
                                                                       AgentId(1, 2)]
    for ki in (AgentId(1, 1), AgentId(1, 2)):
        assert report.agents[ki].max_eig == pytest.approx(0.588, abs=5e-4)
    cert = certify_ne(inst, candidate, default_epsilon(inst, primal))
    assert not cert.certified
    assert cert.max_gain == pytest.approx(0.423, abs=5e-4)
    with pytest.raises(DegenerateInstanceError, match="agents 1.1, 1.2$"):
        tune_params(inst, primal, dual, loud)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(inst))
    assert cli_main(["certify", "--instance", str(path), "--eta", "10",
                     "--out", str(tmp_path / "cert")]) == 5
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "numeric" and error["message"].endswith("agents 1.1, 1.2")


def test_saturated_instance_passes_without_shrinking(saturated_instance):
    """Numerically flat valuations must not be misread as indefiniteness."""
    primal, dual = solve_cp(saturated_instance, tol=1e-10)
    flat = saturated_instance.valuation(AgentId(3, 1))
    assert primal.x[AgentId(3, 1)] > 3.0
    assert flat.deriv(primal.x[AgentId(3, 1)]) < 1e-8  # saturated, price ~ 0
    tuned, shrinks, report = tune_params(saturated_instance, primal, dual, WBB)
    assert shrinks == 0
    assert report.all_pass
    cand = construct_ne(saturated_instance, primal, dual, tuned)
    eps = default_epsilon(saturated_instance, primal)
    cert = certify_ne(saturated_instance, cand, eps, budget=600, restarts=6, seed=0)
    assert cert.certified


# ---------------------------------------------------------------------------
# analytic demand slopes


def _random_wbb_profile(inst, rng, y_hi=3.0):
    profile = {}
    for ki in inst.agents:
        q = {
            lid: (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
            for lid in inst.links_of[ki]
        }
        profile[ki] = Message(float(rng.uniform(0.05, y_hi)), q)
    return profile


def _form_slopes(ev, y, side):
    """The piece form's one-sided x' = r*rest/den (_rate_form's (c, rest,
    a_e), r = c/den, den = rest + a_e*y) and a one-sided finite difference
    of the realized x = r*y over a step of 1e-6*y to `side` of y (None
    where that step crosses a kink of r or of a group peak)."""
    c, rest, a_e = ev._rate_form(y, side)[0]
    den = rest + a_e * y
    dx = c / den * (rest / den)
    h = side * 1e-6 * y
    if any(min(y, y + h) <= k <= max(y, y + h) for k in ev.demand_kinks()[0]):
        return dx, None
    return dx, ((y + h) * ev._scale(y + h)[0] - y * ev._scale(y)[0]) / h


def test_allocation_slope_positive_everywhere(chain_instance, two_member_instance):
    """The own rate rises with the own demand on both sides: the piece
    form's one-sided x' = r*rest/(rest + a_e*y) is positive, and matches a
    one-sided finite difference of the realized x = r*y wherever that
    difference's step crosses no kink."""
    count = 0
    rng = np.random.default_rng(23)
    for inst in (chain_instance, two_member_instance):
        for _ in range(170):
            y = {ki: float(rng.uniform(0.05, 5.0)) for ki in inst.agents}
            profile = {ki: Message(y[ki], zero_message(inst, ki, "wbb").q) for ki in inst.agents}
            for ki in inst.agents:
                ev = DeviationEvaluator(inst, profile, WBB, ki)
                for side in (+1, -1):
                    dx, fd = _form_slopes(ev, y[ki], side)
                    assert dx > 0.0, (ki, side)
                    if fd is not None:
                        assert dx == pytest.approx(fd, rel=1e-5), (ki, side)
                        count += 1
    assert count >= 1000


def test_utility_slope_matches_finite_differences(chain_instance):
    inst = chain_instance
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(120):
        profile = _random_wbb_profile(inst, rng)
        for ki in inst.agents:
            ev = DeviationEvaluator(inst, profile, WBB, ki)
            msg = profile[ki]
            right, left = ev.local_model(msg, +1), ev.local_model(msg, -1)
            sp, jp = right.grad[0], right.jumped
            sm, jm = left.grad[0], left.jumped
            if jp or jm or abs(sp - sm) > 1e-6 * (1.0 + abs(sp)):
                continue  # kink: one-sided objects differ, nothing to compare
            h = 1e-6 * max(1.0, msg.y)
            up = ev.utility(Message(msg.y + h, msg.q))
            um = ev.utility(Message(msg.y - h, msg.q))
            fd = (up - um) / (2.0 * h)
            assert sp == pytest.approx(fd, rel=1e-5, abs=1e-7)
            checked += 1
    assert checked >= 200


def test_utility_slope_covers_singleton_branch(chain_instance):
    """Only group 3 active on l2: its slope runs through the damped branch."""
    inst = chain_instance
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(60):
        profile = _random_wbb_profile(inst, rng)
        ki = AgentId(3, 1)
        for b in inst.agents:
            if b != ki:
                profile[b] = Message(0.0, profile[b].q)
        alloc = allocate(inst, {b: profile[b].y for b in inst.agents})
        assert alloc.r == pytest.approx(
            inst.capacity["l2"] / (profile[ki].y + 1.0), rel=1e-12
        )
        ev = DeviationEvaluator(inst, profile, WBB, ki)
        msg = profile[ki]
        right = ev.local_model(msg, +1)
        sp, jp = right.grad[0], right.jumped
        if jp:
            continue
        h = 1e-6 * max(1.0, msg.y)
        fd = (ev.utility(Message(msg.y + h, msg.q)) - ev.utility(Message(msg.y - h, msg.q))) / (2 * h)
        assert sp == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# allocation uniqueness across message-level equilibria


def test_scaled_demand_equilibrium_same_allocation(symmetric_instance, solved_symmetric):
    """Doubling every demand halves r and leaves the allocation (and the
    certification verdict) unchanged: distinct equilibria, one allocation."""
    primal, _ = solved_symmetric
    cand = constructed(symmetric_instance, solved_symmetric)
    scaled_profile = {
        ki: Message(2.0 * m.y, dict(m.q)) for ki, m in cand.profile.items()
    }
    scaled = CandidateNE(profile=scaled_profile, params=WBB)
    eps = default_epsilon(symmetric_instance, primal)
    report = certify_ne(symmetric_instance, scaled, eps, budget=800, restarts=8, seed=0)
    assert report.certified
    out = evaluate(symmetric_instance, scaled_profile, WBB)
    assert out.r == pytest.approx(0.5, abs=1e-9)
    for ki in symmetric_instance.agents:
        assert out.x[ki] == pytest.approx(primal.x[ki], abs=1e-5)


def _binding_form_checks(ev, y):
    """On each side of y, the offer c/(rest + a_e*y) of the binding form
    (c, rest, a_e) that _rate_form reports is the realized r to KINK_TOL,
    and its x' matches a one-sided finite difference of the realized
    x = r*y where that difference's step crosses no kink (on one side at
    least); returns the (right, left) forms."""
    forms, checked = [], 0
    for side in (+1, -1):
        c, rest, a_e = form = ev._rate_form(y, side)[0]
        assert c / (rest + a_e * y) == pytest.approx(ev._scale(y)[0], rel=KINK_TOL)
        dx, fd = _form_slopes(ev, y, side)
        if fd is not None:
            assert dx == pytest.approx(fd, rel=1e-5), side
            checked += 1
        forms.append(form)
    assert checked
    return tuple(forms)


def test_rate_form_reads_r_from_the_binding_form(two_member_instance):
    """r and x' come from one form on each side of the demand, also at
    ties within KINK_TOL. Peak tie: agent 1.1's own peak within 3e-10 of
    its group-mate's, below or above it; on the right its own peak binds,
    so r is c/(rival + a*y), not the realized c/(rival + pm), and on the
    left the mate's. Offer tie: the faster falling of two offers 1e-11
    apart binds on the right, the slower on the left, and r is its offer,
    not the smaller one."""
    inst, ki = two_member_instance, AgentId(1, 1)
    c, pm, rival = inst.capacity["l1"], 2.0, 3.0
    for gap in (-3e-10, 3e-10):
        y = pm * (1.0 + gap)
        profile = {ki: Message(y, {"l1": (0.1, 0.2)}),
                   AgentId(1, 2): Message(pm, {"l1": (0.2, 0.1)}),
                   AgentId(2, 1): Message(rival, {"l1": (0.3, 0.3)})}
        ev = DeviationEvaluator(inst, profile, WBB, ki)
        assert set(ev.demand_kinks()[0]) == {pm}
        assert _binding_form_checks(ev, y) == ((c, rival, 1.0), (c, rival + pm, 0.0))

    inst = make_instance({"l1": 10.0, "l2": 10.0 * (1.0 + 1e-11)},
                         [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 2.0}),
                          (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0})])
    profile = {ki: Message(1.0, {"l1": (0.1, 0.1), "l2": (0.1, 0.1)}),
               AgentId(2, 1): Message(4.0, {"l1": (0.2, 0.2)}),
               AgentId(3, 1): Message(3.0, {"l2": (0.2, 0.2)})}
    ev = DeviationEvaluator(inst, profile, WBB, ki)
    assert _binding_form_checks(ev, 1.0) == ((inst.capacity["l2"], 3.0, 2.0),
                                             (inst.capacity["l1"], 4.0, 1.0))


def test_jump_at_zero_reads_the_realized_scale(request):
    """jumps_at_zero reads the realized scale at y = 0 from the snapshot
    (each route link's offer at rest + peak_mates); its verdict is the one
    the realized _scale(0.0) gives, at each fixture's candidate and at 20
    profiles per fixture whose demands are 0 half the time, so that r
    jumps at 0 for some agents and not for others."""
    rng = np.random.default_rng(41)
    verdicts = []
    for name in XCHECK_INSTANCES[:-2]:
        inst = request.getfixturevalue(name)
        candidate = _replayed(inst, WBB)
        profiles = [candidate] + [
            {b: Message(m.y * float(rng.integers(0, 2) * rng.uniform(0.5, 2.0)), m.q)
             for b, m in candidate.items()} for _ in range(20)]
        for profile in profiles:
            for ki in inst.agents:
                ev = DeviationEvaluator(inst, profile, WBB, ki)
                c, rest, _ = ev._rate_form(0.0, +1)[0]
                r_lim = c / rest
                verdicts.append(ev.jumps_at_zero())
                assert verdicts[-1] == (abs(r_lim - ev._scale(0.0)[0]) > KINK_TOL * r_lim)
    assert 0 < sum(verdicts) < len(verdicts)


def test_best_demand_just_past_a_jump_at_zero():
    """Agent 1.1 shares group 1 on l1 (c = 10) with 1.2, who demands 0 and
    quotes 3, above group 2's price 1, so 1.1's best first quote clips at 0
    and its tax grows with l1's slack. At y = 0 l1 carries one demanding
    group and offers 10/6, so r jumps at 0 and l1 is slack there only: g
    jumps up past 0, then falls (price 5 against V'(0) = 1). The best
    response reads g's right limit at 0, which no sample of g from 1e-13
    to 1e-1 beats."""
    inst = make_instance({"l1": 10.0}, [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                                        (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                                        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0})])
    ki = AgentId(1, 1)
    profile = {ki: Message(1.0, {"l1": (0.0, 5.0)}),
               AgentId(1, 2): Message(0.0, {"l1": (3.0, 5.0)}),
               AgentId(2, 1): Message(5.0, {"l1": (1.0, 5.0)})}
    ev = DeviationEvaluator(inst, profile, WBB, ki)
    res = exact_best_response(inst, profile, ki, WBB)
    assert ev.jumps_at_zero() and res.message.y > 0.0
    tol = 1e-12 * (1.0 + abs(res.best_utility))
    for y in np.geomspace(1e-13, 1e-1, 13):
        assert res.best_utility >= ev.utility(ev.best_message(float(y), profile[ki])) - tol, y


def test_envelope_drops_the_lower_parallel_form():
    """Agent 1.1 crosses l1 and l2 (c = 10, a = 1), so its own peaks give
    1/r the parallel lines (3 + y)/10 and (5 + y)/10, and its group-mate's
    peak 4 on l1 the flat line 7/10. The envelope is max(7/10, (5 + y)/10):
    r bends at y = 2 only, and the lower parallel line meets the flat one at
    y = 4 = pm/a off the envelope. The kinks are pm/a and 2, and the flat
    form binds below 2, l2's above."""
    inst = make_instance({"l1": 10.0, "l2": 10.0},
                         [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
                          (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0})])
    ys = {AgentId(1, 1): 1.0, AgentId(1, 2): 4.0, AgentId(2, 1): 3.0, AgentId(3, 1): 5.0}
    profile = {ki: Message(y, zero_message(inst, ki, "wbb").q) for ki, y in ys.items()}
    ev = DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))
    assert ev.demand_kinks() == ([4.0, 2.0], [3.0, 5.0])
    assert ev._rate_form(1.0, +1)[0] == (10.0, 7.0, 0.0)
    assert ev._rate_form(3.0, +1)[0] == (10.0, 5.0, 1.0)


def test_envelope_counts_three_offers_meeting_once():
    """Agent 1.1's group-mate peaks 4 on l1 (the flat line 7/10), its own
    peak gives l2 the line (5 + y)/10 and, at alpha = 2, l3 the line
    (3 + 2y)/10: all three meet at y = 2. l2's line touches the envelope
    max(7/10, (3 + 2y)/10) there only, so it is no envelope line, and the
    kink at 2 is reported once."""
    inst = make_instance({"l1": 10.0, "l2": 10.0, "l3": 10.0},
                         [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0, "l3": 2.0}),
                          (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0}),
                          (4, 1, LOG_SAT, 1.0, 1.0, {"l3": 1.0})])
    ys = {AgentId(1, 1): 1.0, AgentId(1, 2): 4.0, AgentId(2, 1): 3.0, AgentId(3, 1): 5.0,
          AgentId(4, 1): 3.0}
    profile = {ki: Message(y, zero_message(inst, ki, "wbb").q) for ki, y in ys.items()}
    ev = DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))
    assert ev.demand_kinks() == ([4.0, 2.0], [3.0, 5.0, 1.5])


def test_envelope_kink_where_the_off_route_offer_binds():
    """Agent 1.1 crosses l1 only; l2 (c = 6), off its route, offers
    6 / (2 + 4) = 1, and l1 offers 10 / (2 + y). The off-route offer binds
    up to y = 8, l1's past it: one kink, and at the kink the faster falling form binds on the right, the flat one on
    the left."""
    inst = make_instance({"l1": 10.0, "l2": 6.0},
                         [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                          (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
                          (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0})])
    ys = {AgentId(1, 1): 1.0, AgentId(2, 1): 2.0, AgentId(3, 1): 4.0}
    profile = {ki: Message(y, zero_message(inst, ki, "wbb").q) for ki, y in ys.items()}
    ev = DeviationEvaluator(inst, profile, WBB, AgentId(1, 1))
    assert ev.demand_kinks() == ([8.0], [2.0])
    assert ev._scale(4.0)[0] == 1.0
    assert ev._rate_form(4.0, +1)[0] == ev._rate_form(8.0, -1)[0] == (1.0, 1.0, 0.0)
    assert ev._rate_form(8.0, +1)[0] == ev._rate_form(9.0, -1)[0] == (10.0, 2.0, 1.0)


def test_readme_quickstart_runs(capsys):
    """README's python quickstart runs as written: its candidate certifies,
    and its rate-model read is one evaluation with one entry per route link."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quickstart = readme.split("## Library quickstart", 1)[1]
    code = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert capsys.readouterr().out.startswith("True ")
    assert names["report"].certified
    assert names["ev"].evals == 1
    assert len(names["links"]) == len(names["inst"].links_of[names["inst"].agents[0]])
