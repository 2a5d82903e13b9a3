"""Acceptance gate: every headline guarantee at its stated tolerance.

Each test prints one ``[criterion N] <label>: PASS/FAIL`` line on the real
stdout (bypassing capture) so a plain pytest run shows the scoreboard.  The
batch of fifty solved-and-certified random instances is built once per
module and shared by criteria 3, 4, 5 and 7.

The SBB half of criterion 3 guards the redistribution rebate: an agent's
rebate is priced only by the other agents' messages (their own first quotes
and the leave-one-out consensus scale), so no quote of its own can raise
it.  A rebate priced by the receiver's quotes makes raising a quote a
first-order profitable deviation at every constructed candidate, which the
exact best response finds.
"""

import math
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest

from mcastmech import (
    AgentId,
    MechanismParams,
    Message,
    allocate,
    certify_ne,
    check_a4,
    constraint_violation,
    construct_ne,
    curvature_check,
    default_epsilon,
    evaluate,
    exact_best_response,
    lemma_suite,
    random_instance,
    solve_cp,
    tune_params,
    utilities,
)
from mcastmech.errors import SolverError, ValidationFailure
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator, _evaluators

from conftest import batch_shape, coherent_quotes
from evaluate_reference import agents_on_link
from grid_reference import bisected_cuts, grid_best_response
from kinks_reference import pairwise_kinks
from slope_reference import slope_best_response
from kkt_reference import reference_lemmas, reference_quotes

WBB = MechanismParams(variant="wbb")

N_BATCH = 50
CERT_BUDGET = 1000  # cap on utility and slope evaluations per agent
CERT_RESTARTS = 8
SOLVE_TOL = 1e-9
_RESAMPLE_TRIES = 40


def _verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


# ---------------------------------------------------------------------------
# Shared batch: fifty random instances, sharing-filtered, both variants


@dataclass
class VariantRecord:
    params: MechanismParams
    shrinks: int
    curvature: object
    candidate: object
    certification: object
    lemmas: object
    total_tax: float
    drift: float
    payoffs: Dict[AgentId, float]


@dataclass
class SeedRecord:
    seed: int
    instance_seed: int
    instance: object
    primal: object
    dual: object
    epsilon: float
    wbb: VariantRecord
    sbb: VariantRecord


def _sample_sharing_instance(seed):
    """Draw instances at derived sub-seeds until one both solves and has at
    least two groups active on every link at the optimum."""
    groups, members, links, density = batch_shape(seed)
    for attempt in range(_RESAMPLE_TRIES):
        instance_seed = seed * 1009 + attempt
        try:
            inst = random_instance(instance_seed, n_groups=groups,
                                   max_group_size=members, n_links=links,
                                   density=density)
            primal, dual = solve_cp(inst, tol=SOLVE_TOL)
        except (ValidationFailure, SolverError):
            continue
        if check_a4(inst, primal).holds:
            return instance_seed, inst, primal, dual
    raise AssertionError(f"no sharing-compliant draw for batch seed {seed}")


def _variant_record(seed, inst, primal, dual, epsilon, variant):
    params, shrinks, curvature = tune_params(inst, primal, dual,
                                             MechanismParams(variant=variant))
    candidate = construct_ne(inst, primal, dual, params)
    certification = certify_ne(inst, candidate, epsilon, budget=CERT_BUDGET,
                               restarts=CERT_RESTARTS, seed=seed)
    lemmas = lemma_suite(inst, candidate)
    out = evaluate(inst, candidate.profile, params)
    drift = max(abs(out.x[ki] - primal.x[ki]) for ki in inst.agents)
    payoffs = utilities(inst, candidate.profile, params)
    return VariantRecord(params, shrinks, curvature, candidate, certification,
                         lemmas, out.total_tax, drift, payoffs)


@pytest.fixture(scope="module")
def certified_batch():
    t0 = time.time()
    records = []
    for seed in range(1, N_BATCH + 1):
        instance_seed, inst, primal, dual = _sample_sharing_instance(seed)
        epsilon = default_epsilon(inst, primal)
        wbb = _variant_record(seed, inst, primal, dual, epsilon, "wbb")
        sbb = _variant_record(seed, inst, primal, dual, epsilon, "sbb")
        records.append(SeedRecord(seed, instance_seed, inst, primal, dual,
                                  epsilon, wbb, sbb))
    return records, time.time() - t0


# ---------------------------------------------------------------------------
# Criterion 1: solver correctness on analytic and oracle instances


def _grid_bisection_split(capacity, weight1, weight2):
    """Independent optimum of max w1*log(1+m1) + w2*log(1+m2), m1+m2=c:
    coarse grid to bracket, then bisection on the first-order condition.
    Shares no code with the solver."""

    def foc(m1):
        return weight1 / (1.0 + m1) - weight2 / (1.0 + capacity - m1)

    grid = np.linspace(1e-9, capacity - 1e-9, 2001)
    values = [weight1 * math.log1p(m) + weight2 * math.log1p(capacity - m)
              for m in grid]
    best = int(np.argmax(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_solver_correctness(capsys, symmetric_instance, oracle_instance):
    t0 = time.time()
    primal_s, dual_s = solve_cp(symmetric_instance, tol=SOLVE_TOL)
    time_s = time.time() - t0
    err_s = max(abs(primal_s.x[ki] - 5.0) for ki in symmetric_instance.agents)
    err_s = max(err_s, abs(dual_s.lam["l1"] - 1.0 / 6.0))

    t0 = time.time()
    primal_a, _ = solve_cp(oracle_instance, tol=SOLVE_TOL)
    time_a = time.time() - t0
    m1 = _grid_bisection_split(6.0, 3.0, 1.0)
    want = {AgentId(1, 1): m1, AgentId(1, 2): m1, AgentId(2, 1): 6.0 - m1}
    err_a = max(abs(primal_a.x[ki] - want[ki]) for ki in oracle_instance.agents)

    ok = err_s <= 1e-8 and err_a <= 1e-6 and time_s < 1.0 and time_a < 1.0
    _verdict(capsys, 1, "solver matches analytic and oracle optima", ok,
             f"analytic err {err_s:.1e}, oracle err {err_a:.1e}, "
             f"{time_s:.2f}s/{time_a:.2f}s")
    assert err_s <= 1e-8
    assert err_a <= 1e-6
    assert time_s < 1.0 and time_a < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: the allocation map never violates the shared constraints


def test_criterion_2_off_equilibrium_feasibility(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    instances = []
    seed = 0
    while len(instances) < 20:
        seed += 1
        k = len(instances)
        try:
            instances.append(random_instance(
                seed * 77 + 13, n_groups=2 + k % 3, max_group_size=1 + k % 3,
                n_links=1 + k % 4, density=0.8))
        except ValidationFailure:
            continue
    worst = 0.0
    n_profiles = 0
    for inst in instances:
        cap = max(inst.capacity.values())
        # 10,000 demand vectors per instance: U[0, 2 * cap], each entry 0 with probability 0.1
        ys = rng.uniform(0.0, 2.0 * cap, (10_000, len(inst.agents)))
        ys[rng.random(ys.shape) < 0.1] = 0.0
        for row in ys.tolist():
            out = allocate(inst, dict(zip(inst.agents, row)))
            worst = max(worst, constraint_violation(inst, out.x, out.m))
            n_profiles += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(capsys, 2, "off-equilibrium feasibility", ok,
             f"{n_profiles} profiles on {len(instances)} instances, "
             f"worst violation {worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 3: constructed candidates are certified eps-equilibria


def test_criterion_3_wbb_certification(capsys, certified_batch):
    records, elapsed = certified_batch
    n_cert = sum(1 for r in records if r.wbb.certification.certified)
    worst_gain = max(r.wbb.certification.max_gain for r in records)
    max_drift = max(r.wbb.drift for r in records)
    ok = n_cert == len(records) and max_drift <= 1e-6 and elapsed < 600.0
    _verdict(capsys, 3, "WBB candidates certified", ok,
             f"{n_cert}/{len(records)} certified, worst gain {worst_gain:.1e}, "
             f"max allocation drift {max_drift:.1e}, batch {elapsed:.0f}s")
    assert n_cert == len(records)
    assert max_drift <= 1e-6
    assert elapsed < 600.0


def test_criterion_3_sbb_certification(capsys, certified_batch):
    records, _ = certified_batch
    max_drift = max(r.sbb.drift for r in records)
    assert max_drift <= 1e-6  # the candidate does replay the planner rates
    n_cert = sum(1 for r in records if r.sbb.certification.certified)
    worst = max(records, key=lambda r: r.sbb.certification.max_gain)
    gain = worst.sbb.certification.max_gain
    ok = n_cert == len(records)
    _verdict(capsys, 3, "SBB candidates certified", ok,
             f"{n_cert}/{len(records)} certified, max deviation gain {gain:.3g} "
             f"vs epsilon {worst.epsilon:.1e} at batch seed {worst.seed}")
    assert n_cert == len(records), (
        "SBB candidates are not equilibria: measured max gain "
        f"{gain:.6g} vs epsilon {worst.epsilon:.2e} on batch seed {worst.seed} "
        f"({n_cert}/{len(records)} certified). SBB utility is WBB utility plus "
        "a rebate the agent cannot move plus the zeta consensus term, so a "
        "gain here that WBB does not show means some message of the agent "
        "prices its own redistribution rebate (slot 6 of _link_slots).")


# ---------------------------------------------------------------------------
# Criterion 4: budget balance at candidates, and the exact rebate telescope


def _cancellation_residual(records, per_instance, rng):
    """Per-link sum of allocation payments plus redistribution rebates at
    arbitrary demands, with coherent quotes (one price per link, each
    member's second quote its successor's first) and every consensus rate
    pinned to the realized scale; exact up to rounding."""
    worst = 0.0
    count = 0
    for rec in records:
        inst = rec.instance
        on_link = agents_on_link(inst)
        for _ in range(per_instance):
            y = {ki: 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 2.0))
                 for ki in inst.agents}
            r = allocate(inst, y).r
            profile = coherent_quotes(
                inst, {ki: Message(y[ki], {}, r) for ki in inst.agents}, rng)
            out = evaluate(inst, profile, rec.sbb.params)
            for lid in inst.link_ids:
                t1 = sum(out.taxes[ki].per_link[lid][0] for ki in on_link[lid])
                t6 = sum(out.taxes[ki].per_link[lid][5] for ki in on_link[lid])
                worst = max(worst, abs(t1 + t6))
            count += 1
    return worst, count


def test_criterion_4_budget_balance(capsys, certified_batch):
    records, _ = certified_batch
    wbb_floor = min(r.wbb.total_tax for r in records)
    sbb_imbalance = max(abs(r.sbb.total_tax) for r in records)
    worst_cancel, n_profiles = _cancellation_residual(
        records[:10], 100, np.random.default_rng(404))
    ok = (wbb_floor >= -1e-12 and sbb_imbalance <= 1e-9
          and worst_cancel <= 1e-12)
    _verdict(capsys, 4, "budget balance", ok,
             f"WBB tax total >= {wbb_floor:.1e}, SBB |total| <= "
             f"{sbb_imbalance:.1e}, rebate telescope <= {worst_cancel:.1e} "
             f"over {n_profiles} pinned profiles")
    assert wbb_floor >= -1e-12
    assert sbb_imbalance <= 1e-9
    assert worst_cancel <= 1e-12
    assert n_profiles >= 1000


# ---------------------------------------------------------------------------
# Criterion 5: participating never pays more than staying out


def test_criterion_5_individual_rationality(capsys, certified_batch):
    records, _ = certified_batch
    shortfall = 0.0
    for rec in records:
        for variant_rec in (rec.wbb, rec.sbb):
            for ki, u in variant_rec.payoffs.items():
                opt_out = rec.instance.valuation(ki).value(0.0)
                shortfall = max(shortfall, opt_out - u)
    ok = shortfall <= 1e-10
    _verdict(capsys, 5, "individual rationality", ok,
             f"worst payoff shortfall vs opting out {shortfall:.1e} "
             f"across {2 * len(records)} candidate profiles")
    assert shortfall <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 6: the two closed-form profitable deviations are found


def test_criterion_6_closed_form_deviations(capsys, two_member_instance,
                                            solved_two_member,
                                            slack_instance, solved_slack):
    # (a) mismatching the successor quote costs exactly the squared gap:
    # perturbing q2 by 0.5, the best response must recover gain 0.25
    primal, dual = solved_two_member
    cand = construct_ne(two_member_instance, primal, dual, WBB)
    ki = AgentId(1, 1)
    profile = {b: m.copy() for b, m in cand.profile.items()}
    q1, q2 = profile[ki].q["l1"]
    profile[ki] = Message(profile[ki].y, {"l1": (q1, q2 + 0.5)})
    res = exact_best_response(two_member_instance, profile, ki, WBB, budget=1500)
    gain_match = res.gain

    # (b) overpricing a slack link costs the squared coherence gap:
    # w=0.1 against a zero rival mean must come back as gain 0.01
    primal, dual = solved_slack
    cand = construct_ne(slack_instance, primal, dual, WBB)
    ki = AgentId(1, 1)
    profile = {b: m.copy() for b, m in cand.profile.items()}
    q = dict(profile[ki].q)
    assert q["l2"][0] == pytest.approx(0.0, abs=1e-9)
    q["l2"] = (0.1, q["l2"][1])
    profile[ki] = Message(profile[ki].y, q)
    res = exact_best_response(slack_instance, profile, ki, WBB, budget=1500)
    gain_slack = res.gain

    ok = abs(gain_match - 0.25) <= 1e-6 and abs(gain_slack - 0.01) <= 1e-6
    _verdict(capsys, 6, "closed-form deviation gains recovered", ok,
             f"quote mismatch {gain_match:.8f} (want 0.25), "
             f"slack overprice {gain_slack:.8f} (want 0.01)")
    assert gain_match == pytest.approx(0.25, abs=1e-6)
    assert gain_slack == pytest.approx(0.01, abs=1e-6)


# ---------------------------------------------------------------------------
# Criterion 7: own-utility Hessians are negative definite at the candidates


def test_criterion_7_curvature(capsys, certified_batch):
    records, _ = certified_batch
    n_agents = 0
    all_nd = True
    worst_diag = 0.0
    total_shrinks = 0
    for rec in records:
        for variant_rec in (rec.wbb, rec.sbb):
            total_shrinks += variant_rec.shrinks
            for agent in variant_rec.curvature.agents.values():
                n_agents += 1
                all_nd = all_nd and agent.passed
                for diag in agent.price_diag.values():
                    worst_diag = max(worst_diag, abs(diag + 2.0))
    ok = all_nd and worst_diag <= 1e-4
    _verdict(capsys, 7, "negative-definite candidate curvature", ok,
             f"{n_agents} agent Hessians, worst price diagonal error "
             f"{worst_diag:.1e}, {total_shrinks} auto-shrinks")
    assert all_nd
    assert worst_diag <= 1e-4


# ---------------------------------------------------------------------------
# Criterion 8: analytic demand slopes against finite differences


def _slope_errors(inst, profile, rng, stats):
    for ki in inst.agents:
        if profile[ki].y <= 0.0:
            continue
        ev = DeviationEvaluator(inst, profile, WBB, ki)
        msg = profile[ki]
        right, left = ev.local_model(msg, +1), ev.local_model(msg, -1)
        sp, jp = right.grad[0], right.jumped
        sm, jm = left.grad[0], left.jumped
        if jp or jm or abs(sp - sm) > 1e-6 * (1.0 + abs(sp)):
            continue  # kink: the one-sided objects differ, nothing to compare
        h = 1e-6 * max(1.0, msg.y)
        fd = (ev.utility(Message(msg.y + h, msg.q))
              - ev.utility(Message(msg.y - h, msg.q))) / (2.0 * h)
        stats["checked"] += 1
        if abs(sp - fd) > max(1e-5 * abs(fd), 1e-7):
            stats["bad"] += 1
        stats["worst"] = max(stats["worst"],
                             abs(sp - fd) / max(abs(fd), 1e-7))


def test_criterion_8_demand_slope_checks(capsys, certified_batch, chain_instance):
    records, _ = certified_batch
    rng = np.random.default_rng(88)
    stats = {"checked": 0, "bad": 0, "worst": 0.0}
    for rec in records:
        inst = rec.instance
        for _ in range(8):
            profile = {}
            for ki in inst.agents:
                q = {lid: (float(rng.uniform(0.0, 1.0)),
                           float(rng.uniform(0.0, 1.0)))
                     for lid in inst.links_of[ki]}
                profile[ki] = Message(float(rng.uniform(0.05, 3.0)), q)
            _slope_errors(inst, profile, rng, stats)
        if stats["checked"] >= 950:
            break

    # the lone-demand branch: only one agent active, so its scale runs
    # through the damped one-group formula c/(n+1)
    singleton = {"checked": 0, "bad": 0, "worst": 0.0}
    ki = AgentId(3, 1)
    while singleton["checked"] < 60:
        profile = {}
        for b in chain_instance.agents:
            q = {lid: (float(rng.uniform(0.0, 1.0)),
                       float(rng.uniform(0.0, 1.0)))
                 for lid in chain_instance.links_of[b]}
            profile[b] = Message(0.0, q)
        y = float(rng.uniform(0.2, 4.0))
        profile[ki] = Message(y, profile[ki].q)
        alloc = allocate(chain_instance,
                         {b: profile[b].y for b in chain_instance.agents})
        assert alloc.r == pytest.approx(
            chain_instance.capacity["l2"] / (y + 1.0), rel=1e-12)
        _slope_errors(chain_instance, profile, rng, singleton)

    total = stats["checked"] + singleton["checked"]
    bad = stats["bad"] + singleton["bad"]
    worst = max(stats["worst"], singleton["worst"])
    ok = total >= 1000 and bad == 0
    _verdict(capsys, 8, "analytic demand slopes match finite differences", ok,
             f"{total} off-kink points ({singleton['checked']} on the "
             f"lone-demand branch), {bad} mismatches, worst rel err "
             f"{worst:.1e}")
    assert total >= 1000
    assert bad == 0, f"{bad} of {total} slope checks off by more than rel 1e-5"


# ---------------------------------------------------------------------------
# Best-response certificates on the batch: cost, agreement with the sampled
# reference, and the shape of g between kinks

# Utility plus slope evaluations per agent; measured 7.08 on average and 15 at most,
# and each cap leaves about a quarter on top.
EVALS_MEAN_CAP = 9
EVALS_MAX_CAP = 20


def _perturbed(profile, rng):
    """Every demand and first quote scaled by U[0.5, 2], every first quote
    raised by U[0, 0.2]: an off-equilibrium profile near the candidate."""
    return {b: Message(m.y * float(rng.uniform(0.5, 2.0)),
                       {lid: (q1 * float(rng.uniform(0.5, 2.0)) + float(rng.uniform(0.0, 0.2)), q2)
                        for lid, (q1, q2) in m.q.items()}, m.rho)
            for b, m in profile.items()}


def _batch_profiles(records, seed):
    """(seed record, variant record, profile) at each candidate and at one
    perturbed copy of it."""
    rng = np.random.default_rng(seed)
    for r in records:
        for v in (r.wbb, r.sbb):
            yield r, v, v.candidate.profile
            yield r, v, _perturbed(v.candidate.profile, rng)


def test_certify_evaluation_counts(certified_batch):
    """A deterministic cost guard: certifying the batch takes at most
    EVALS_MEAN_CAP utility and slope evaluations per agent on average and
    EVALS_MAX_CAP for any agent, and no agent's search is cut short."""
    records, _ = certified_batch
    counts = [n for r in records for v in (r.wbb, r.sbb)
              for n in v.certification.evals.values()]
    assert all(not v.certification.incomplete for r in records for v in (r.wbb, r.sbb))
    assert np.mean(counts) <= EVALS_MEAN_CAP, np.mean(counts)
    assert max(counts) <= EVALS_MAX_CAP, max(counts)


def test_best_response_matches_grid_reference(certified_batch):
    """At each candidate and at a perturbed copy, in both variants, the
    certified best response is never below the sampled grid-plus-golden
    search it replaced by more than 1e-12 * (1 + |u|)."""
    records, _ = certified_batch
    for r, v, profile in _batch_profiles(records, 17):
        for ki in r.instance.agents:
            res = exact_best_response(r.instance, profile, ki, v.params)
            ref = grid_best_response(r.instance, profile, ki, v.params)
            assert res.complete
            tol = 1e-12 * (1.0 + abs(ref.best_utility))
            assert res.best_utility >= ref.best_utility - tol, (r.seed, v.params.variant, ki)


def _ladder_profiles(seed):
    """(instance, params, profile) on the ladder draws random_instance(1, g,
    3, g) for g = 6 and 12, at the candidate of the default params in both
    variants and at one perturbed copy of it."""
    rng = np.random.default_rng(seed)
    for g in (6, 12):
        inst = random_instance(1, g, 3, g)
        primal, dual = solve_cp(inst, tol=SOLVE_TOL)
        for variant in ("wbb", "sbb"):
            params = MechanismParams(variant=variant)
            profile = construct_ne(inst, primal, dual, params).profile
            yield inst, params, profile
            yield inst, params, _perturbed(profile, rng)


def test_best_response_matches_slope_reference(certified_batch):
    """On the batch (each candidate and a perturbed copy, both variants)
    and on the ladder draws, every agent's gain from the per-piece model
    lies within 1024 eps * (1 + |u|) of the gain of the slope-driven search
    it replaced (slope_reference), and both searches run to completion."""
    records, _ = certified_batch
    cases = [(r.instance, v.params, profile) for r, v, profile in _batch_profiles(records, 19)]
    for inst, params, profile in cases + list(_ladder_profiles(31)):
        for ki in inst.agents:
            res = exact_best_response(inst, profile, ki, params)
            ref = slope_best_response(inst, profile, ki, params)
            assert res.complete and ref.complete
            assert res.base_utility == ref.base_utility
            tol = 1024.0 * np.finfo(float).eps * (1.0 + abs(ref.base_utility))
            assert abs(res.gain - ref.gain) <= tol, (params.variant, ki, res.gain, ref.gain)


def test_clip_points_match_bisection(certified_batch):
    """At each candidate and at a perturbed copy, in both variants, the
    pieces' left ends (kinks and closed-form clip points) and the split
    found by bisecting on the clip state (grid_reference.bisected_cuts)
    lie within 2e-8 relative of each other, both ways. A clip within
    KINK_TOL of a kink merges with it; the bisection, which starts from
    the clip state read at the kink, finds it within 1e-8 past the kink."""
    records, _ = certified_batch
    n_clips = 0
    for r, v, profile in _batch_profiles(records, 29):
        for ki in r.instance.agents:
            cuts = [a for a, _, _, _ in exact_best_response(r.instance, profile, ki,
                                                             v.params).pieces]
            ev = DeviationEvaluator(r.instance, profile, v.params, ki)
            ref = bisected_cuts(ev, profile[ki])
            n_clips += len(set(cuts) - set(ev.demand_kinks()[0])) - 1
            for ys, others in ((cuts, ref), (ref, cuts)):
                for y in ys:
                    assert min(abs(y - z) for z in others) <= 2e-8 * y, (r.seed, ki, y)
    assert n_clips > 0


def test_envelope_kinks_match_pairwise_scan(capsys, certified_batch):
    """demand_kinks' upper-envelope sweep against the pairwise scan
    (kinks_reference) at the candidates of batch seeds 1-50 and of
    random_instance(1, g, 3, g) for g = 6, 12 and 25, both variants: the
    knees agree, every envelope kink is a scan kink bit for bit, and every
    scan kink not within KINK_TOL of an envelope kink lies below 1e-9 of
    the agent's smallest knee (offers within KINK_TOL of the minimum as y
    nears 0, crossing off the envelope)."""
    records, _ = certified_batch
    cases = [(r.instance, v.candidate) for r in records for v in (r.wbb, r.sbb)]
    for g in (6, 12, 25):
        inst = random_instance(1, g, 3, g)
        primal, dual = solve_cp(inst)
        for variant in ("wbb", "sbb"):
            params, _, _ = tune_params(inst, primal, dual, MechanismParams(variant=variant))
            cases.append((inst, construct_ne(inst, primal, dual, params)))
    agents = off = 0
    for inst, cand in cases:
        for ev in _evaluators(inst, cand.profile, cand.params):
            kinks, knees = ev.demand_kinks()
            ref, ref_knees = pairwise_kinks(ev)
            assert knees == ref_knees and set(kinks) <= set(ref), ev.ki
            for y in ref:
                if all(abs(y - k) > KINK_TOL * y for k in kinks):
                    assert y < 1e-9 * min(knees), (ev.ki, y, min(knees))
                    off += 1
            agents += 1
    with capsys.disabled():
        print(f"\n[kinks] {agents} agents: envelope kinks all among the pairwise scan's; "
              f"{off} scan kinks off the envelope, all below 1e-9 of the smallest knee")


def test_piece_slopes_against_sampled_g(capsys, certified_batch):
    """On every piece of g searched for the first 16 batch seeds, at the
    candidates and at perturbed copies, the best first quotes are clipped
    at 0 alike at both ends, and g sampled on 200 log-spaced demands never
    beats the best response. Pieces whose samples are not unimodal as the
    end slopes alone would say are counted and printed, not hidden: g is
    concave, then convex in the rate, so valleys and dips occur, and
    exact_best_response covers them."""
    records, _ = certified_batch
    n_pieces, shapes = 0, []
    for r, v, profile in _batch_profiles(records[:16], 23):
        for ki in r.instance.agents:
            res = exact_best_response(r.instance, profile, ki, v.params)
            ev = DeviationEvaluator(r.instance, profile, v.params, ki)

            def g(y):
                return ev.utility(ev.best_message(float(y), profile[ki]))

            def clipped(y):
                return [q1 == 0.0 for q1, _ in ev.best_message(y, profile[ki]).q.values()]

            tol = 1e-12 * (1.0 + abs(res.best_utility))
            for a, b, sa, sb in res.pieces:
                # just inside the ends, past the KINK_TOL within which a clip merges with a kink
                inner = max(a * (1.0 + 2e-8), b * 1e-15), b * (1.0 - 2e-8)
                if inner[0] < inner[1]:
                    assert clipped(inner[0]) == clipped(inner[1]), (r.seed, ki, a, b)
                ys = np.geomspace(a if a > 0.0 else b * 1e-15, b, 202)[1:-1]
                vals = np.array([g(y) for y in ys])
                n_pieces += 1
                assert vals.max() <= res.best_utility + tol, (r.seed, ki, a, b)
                left = np.maximum.accumulate(vals)
                right = np.maximum.accumulate(vals[::-1])[::-1]
                valley = (np.minimum(left, right) - vals).max() > tol
                if valley or (sa <= 0.0 and vals.max() > g(a) + tol) or \
                        (sb >= 0.0 and vals.max() > g(b) + tol):
                    shapes.append(f"seed {r.seed} {v.params.variant} {ki.label} "
                                  f"[{a:.4g}, {b:.4g}] slopes ({sa:+.1e}, {sb:+.1e})")
    with capsys.disabled():
        print(f"[best response] {len(shapes)} of {n_pieces} pieces not unimodal "
              f"as sampled: " + "; ".join(shapes), flush=True)


def test_best_response_beyond_unimodal_pieces(certified_batch):
    """Two perturbed batch profiles where g is not unimodal between kinks,
    and the maximum sits where the end slopes alone would not put it: on
    seed 9, agent 1.1's g rises at both ends of a piece and peaks inside
    it, before a dip; on seed 41, agent 1.1's g falls from the start of its
    last piece and then rises again out to saturation. Both are found, and
    no sample of g on the piece beats them."""
    records, _ = certified_batch
    ki = AgentId(1, 1)
    for seed, last in ((9, False), (41, True)):
        r = records[seed - 1]
        for v in (r.wbb, r.sbb):
            profile = _perturbed(v.candidate.profile, np.random.default_rng(2))
            res = exact_best_response(r.instance, profile, ki, v.params)
            if last:
                a, b, sa, sb = res.pieces[-1]
                assert sa <= 0.0 and res.message.y > a
            else:
                a, b, sa, sb = next(p for p in res.pieces if p[0] < res.message.y < p[1])
                assert sa > 0.0 and sb > 0.0
            assert res.gain > 0.05
            ev = DeviationEvaluator(r.instance, profile, v.params, ki)
            top = max(ev.utility(ev.best_message(float(y), profile[ki]))
                      for y in np.geomspace(a, b, 400))
            assert top <= res.best_utility + 1e-12 * (1.0 + abs(res.best_utility))


def _same_evaluator(ev, fresh, msg, rng):
    """ev and fresh agree bit for bit on every view of ki's own utility:
    demand kinks, utility at msg and at perturbed copies, the slopes of g
    on both sides, the local models and the clip points."""
    assert ev.ki == fresh.ki and ev.coords == fresh.coords
    assert ev.demand_kinks() == fresh.demand_kinks()
    trials = [msg] + [Message(msg.y * float(rng.uniform(0.5, 2.0)),
                              {lid: (q1 * float(rng.uniform(0.0, 2.0)), q2 + float(rng.uniform()))
                               for lid, (q1, q2) in msg.q.items()},
                              None if msg.rho is None else msg.rho * float(rng.uniform(0.5, 2.0)))
                      for _ in range(3)]
    for trial in trials:
        assert ev.utility(trial) == fresh.utility(trial)
        assert ev.clip_points(trial.y) == fresh.clip_points(trial.y)
        for side in ((+1, -1) if trial.y > 0.0 else (+1,)):
            assert ev.demand_slope(trial.y, side) == fresh.demand_slope(trial.y, side)
            mine, theirs = ev.local_model(trial, side), fresh.local_model(trial, side)
            assert mine.point == theirs.point and mine.jumped == theirs.jumped
            assert np.array_equal(mine.grad, theirs.grad)
            assert np.array_equal(mine.hess, theirs.hess)


def test_shared_read_matches_fresh_evaluators(certified_batch):
    """At each candidate and at a perturbed copy, in both variants, every
    agent's evaluator built from one shared read of the profile (as
    certify_ne and curvature_check build them) equals one built alone by
    DeviationEvaluator, compared with ==; the shared ones are all built
    before any is used, so none disturbs another through the read."""
    records, _ = certified_batch
    rng = np.random.default_rng(43)
    for r, v, profile in _batch_profiles(records, 41):
        shared = list(_evaluators(r.instance, profile, v.params))
        assert [ev.ki for ev in shared] == list(r.instance.agents)
        for ev in shared:
            fresh = DeviationEvaluator(r.instance, profile, v.params, ev.ki)
            _same_evaluator(ev, fresh, profile[ev.ki], rng)


def test_slope_cache_is_safe(certified_batch):
    """The model layer reads no state the pricing layer leaves: an
    evaluator's scale_slopes, slopes, clip points and local models match a
    fresh evaluator's after utility and best_message have run at other
    demands (first 16 batch seeds, candidates and perturbed copies, both
    variants)."""
    records, _ = certified_batch
    rng = np.random.default_rng(47)
    for r, v, profile in _batch_profiles(records[:16], 53):
        for ki in r.instance.agents:
            msg = profile[ki]
            ev = DeviationEvaluator(r.instance, profile, v.params, ki)
            ys = [y for y in (msg.y, *ev.demand_kinks()[0]) if 0.0 < y < 1e30]
            ys += [ys[0] * float(f) for f in rng.uniform(0.2, 3.0, 2)]
            for _ in range(8):
                y, z = (ys[int(i)] for i in rng.integers(len(ys), size=2))
                side = int(rng.choice([+1, -1]))
                ev.scale_slopes(y, side)
                ev.utility(ev.best_message(z, msg))  # the route links now hold z
                fresh = DeviationEvaluator(r.instance, profile, v.params, ki)
                assert ev.scale_slopes(y, side) == fresh.scale_slopes(y, side)
                assert ev.demand_slope(y, side) == fresh.demand_slope(y, side)
                ev.best_message(z, msg)
                assert ev.clip_points(y) == fresh.clip_points(y)
                ev.best_message(z, msg)
                trial = Message(y, msg.q, msg.rho)
                assert np.array_equal(ev.local_model(trial, side).hess,
                                      fresh.local_model(trial, side).hess)


def test_demand_slope_is_the_envelope_gradient(certified_batch):
    """The envelope theorem bit for bit: at three log-spaced demands inside
    each piece of every agent's exact best response (first 16 batch seeds,
    both variants, at the candidates), on each side, demand_slope's g' is
    local_model's demand gradient at best_message. When the two read the
    allocation from two producers, 80 of these 3,420 reads differed in the
    last bits."""
    records, _ = certified_batch
    n_reads = 0
    for r in records[:16]:
        for v in (r.wbb, r.sbb):
            profile = v.candidate.profile
            for ki in r.instance.agents:
                pieces = exact_best_response(r.instance, profile, ki, v.params).pieces
                ev = DeviationEvaluator(r.instance, profile, v.params, ki)
                for a, b, _, _ in pieces:
                    for y in np.geomspace(a if a > 0.0 else b * 1e-6, b, 5)[1:-1]:
                        y = float(y)
                        for side in (+1, -1):
                            model = ev.local_model(ev.best_message(y, profile[ki]), side)
                            assert ev.demand_slope(y, side)[0] == model.grad[0], \
                                (r.seed, v.params.variant, ki, y, side)
                            n_reads += 1
    assert n_reads == 3420


def test_certify_matches_per_agent_best_responses(certified_batch):
    """certify_ne, which builds every evaluator from one read of the
    candidate, reports for each agent the gain, evaluation count and
    deviation of exact_best_response run on that agent alone."""
    records, _ = certified_batch
    for r in records:
        for v in (r.wbb, r.sbb):
            cert = v.certification
            for ki in r.instance.agents:
                br = exact_best_response(r.instance, v.candidate.profile, ki, v.params,
                                         CERT_BUDGET)
                assert (br.gain, br.evals, br.message) == \
                    (cert.gains[ki], cert.evals[ki], cert.deviations[ki]), (r.seed, ki)


def _separate_max_eigs(inst, candidate):
    """curvature_check's max_eig and verdict per agent, each one-sided
    Hessian sliced by that side's LocalModel.free with np.ix_ and given to
    eigvalsh on its own."""
    out = {}
    for ki in inst.agents:
        ev = DeviationEvaluator(inst, candidate.profile, candidate.params, ki)
        msg = candidate.profile[ki]
        models = [ev.local_model(msg, +1)] + ([ev.local_model(msg, -1)] if msg.y > 0.0 else [])
        max_eig, passed = -math.inf, True
        for m in models:
            keep = np.flatnonzero(m.free)
            if len(keep):
                H = m.hess[np.ix_(keep, keep)]
                top = float(np.linalg.eigvalsh(H)[-1])
                max_eig = max(max_eig, top)
                passed = passed and top <= len(keep) * np.finfo(float).eps * float(np.abs(H).max())
        out[ki] = (max_eig if max_eig > -math.inf else 0.0, passed)
    return out


def test_curvature_eigenvalues_match_separate_calls(certified_batch):
    """curvature_check gives each agent's max_eig and verdict bit for bit
    as one eigvalsh call per one-sided Hessian, each sliced by its own
    side's free mask, does (first 16 batch seeds, both variants)."""
    records, _ = certified_batch
    for r in records[:16]:
        for v in (r.wbb, r.sbb):
            report = curvature_check(r.instance, v.candidate)
            ref = _separate_max_eigs(r.instance, v.candidate)
            assert {ki: (a.max_eig, a.passed) for ki, a in report.agents.items()} == ref


def test_batch_needs_no_coupling_shrink(certified_batch):
    """tune_params keeps the default coupling weights on every batch seed
    in both variants. Seed 42 is the draw where curvature_check once kept
    a first quote that demand_slope clips: agent 2.3 quotes an
    interior-point residue on l1, which the right side locks and the left
    side keeps, and the candidate at default params passes."""
    records, _ = certified_batch
    assert [(r.seed, v.params.variant) for r in records for v in (r.wbb, r.sbb)
            if v.shrinks] == []
    r = records[41]
    ki = AgentId(2, 3)
    assert (r.seed, r.instance_seed) == (42, 42378)
    for variant in ("wbb", "sbb"):
        params = MechanismParams(variant=variant)
        candidate = construct_ne(r.instance, r.primal, r.dual, params)
        report = curvature_check(r.instance, candidate)
        assert report.all_pass, variant
        assert report.agents[ki].locked == ["q1|l1"], variant
        msg = candidate.profile[ki]
        assert 0.0 < msg.q["l1"][0] < 1e-15, variant
        ev = DeviationEvaluator(r.instance, candidate.profile, params, ki)
        assert ev.local_model(msg, -1).free[ev.coords.index(("q1", "l1"))], variant


def test_curvature_locks_agree_with_demand_slope(certified_batch):
    """On each side of every batch candidate's demand (both variants),
    the Schur complement of local_model's Hessian over its free quote block
    (the q1, q2 and rho that LocalModel.free keeps) is demand_slope's g''
    within a relative 1e-12: the certificate and the exact best response
    clip the same quotes."""
    records, _ = certified_batch
    n_reads = 0
    for r in records:
        for v in (r.wbb, r.sbb):
            profile = v.candidate.profile
            for ev in _evaluators(r.instance, profile, v.params):
                y = profile[ev.ki].y
                for side in (+1, -1) if y > 0.0 else (+1,):
                    model = ev.local_model(profile[ev.ki], side)
                    quotes = np.flatnonzero(model.free[1:]) + 1
                    h = model.hess[0, quotes]
                    schur = model.hess[0, 0] - h @ np.linalg.solve(
                        model.hess[np.ix_(quotes, quotes)], h)
                    g2 = ev.demand_slope(y, side)[1]
                    assert abs(schur - g2) <= 1e-12 * abs(g2), \
                        (r.seed, v.params.variant, ev.ki, side, schur, g2)
                    n_reads += 1
    assert n_reads == 964


def test_table_walks_match_dict_walks(certified_batch):
    """construct_ne's quotes and lemma_suite's blocks, read through the
    mechanism's instance tables, equal the per-key dict walks bit for bit,
    quote order included, on batch seeds 1-50 in both variants."""
    records, _ = certified_batch
    for r in records:
        quotes = reference_quotes(r.instance, r.dual)
        for v in (r.wbb, r.sbb):
            profile = v.candidate.profile
            assert {ki: list(m.q.items()) for ki, m in profile.items()} == \
                {ki: list(q.items()) for ki, q in quotes.items()}, r.seed
            ref = reference_lemmas(r.instance, v.candidate).as_dict()
            assert {k: float.hex(b) for k, b in v.lemmas.as_dict().items()} == \
                {k: float.hex(b) for k, b in ref.items()}, r.seed
