"""Convex solver: analytic optima, an independent oracle, KKT residuals."""

import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcastmech import (
    EXP_SAT,
    LOG_SAT,
    AgentId,
    PrimalSolution,
    allocate,
    argmax_ties,
    check_a4,
    constraint_violation,
    kkt_residuals,
    random_instance,
    solution_to_json,
    solve_cp,
    welfare,
)
from mcastmech import centralized
from mcastmech.errors import SolverError
from mcastmech.model import RATE_ATOL, Valuation, _tables

from conftest import batch_shape, make_instance
from kkt_reference import (dense_direction, eager_solve, normal_matrix, reference_a4,
                           reference_residuals, reference_ties)
from solve_corpus import corpus


# ---------------------------------------------------------------------------
# Independent oracle for the one-link, two-group instance:
# maximize 3*log(1+m1) + log(1+m2) subject to m1 + m2 = 6.
# Coarse grid to bracket, then bisection on the first-order condition
# 3/(1+m1) - 1/(1+m2) = 0.  No solver code shared.


def oracle_two_group_split(capacity, weight1, weight2):
    def foc(m1):
        m2 = capacity - m1
        return weight1 / (1.0 + m1) - weight2 / (1.0 + m2)

    grid = np.linspace(1e-9, capacity - 1e-9, 2001)
    values = [weight1 * math.log1p(m) + weight2 * math.log1p(capacity - m) for m in grid]
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    # foc is decreasing in m1: positive at lo, negative at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_oracle_matches_closed_form():
    # 3(1+m2) = 1+m1 with m1+m2=6 has the exact solution m1=5
    assert oracle_two_group_split(6.0, 3.0, 1.0) == pytest.approx(5.0, abs=1e-10)


# ---------------------------------------------------------------------------
# fixed instances


def test_symmetric_split(symmetric_instance, solved_symmetric):
    primal, dual = solved_symmetric
    for ki in symmetric_instance.agents:
        assert primal.x[ki] == pytest.approx(5.0, abs=1e-8)
    assert dual.lam["l1"] == pytest.approx(1.0 / 6.0, abs=1e-8)
    for ki in symmetric_instance.agents:
        assert dual.mu[(ki, "l1")] == pytest.approx(1.0 / 6.0, abs=1e-8)


def test_asymmetric_matches_oracle(oracle_instance, solved_oracle):
    primal, dual = solved_oracle
    m1 = oracle_two_group_split(6.0, 3.0, 1.0)
    m2 = 6.0 - m1
    assert primal.x[AgentId(1, 1)] == pytest.approx(m1, abs=1e-6)
    assert primal.x[AgentId(1, 2)] == pytest.approx(m1, abs=1e-6)
    assert primal.x[AgentId(2, 1)] == pytest.approx(m2, abs=1e-6)
    assert primal.m[(1, "l1")] == pytest.approx(m1, abs=1e-6)
    # lambda = total grp-2 marginal value = 1/(1+m2) = 1/2
    assert dual.lam["l1"] == pytest.approx(0.5, abs=1e-7)
    assert dual.mu[(AgentId(1, 1), "l1")] == pytest.approx(1.0 / 6.0, abs=1e-7)
    assert dual.mu[(AgentId(1, 2), "l1")] == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert dual.mu[(AgentId(2, 1), "l1")] == pytest.approx(0.5, abs=1e-7)


def test_slack_link_gets_zero_dual(slack_instance, solved_slack):
    primal, dual = solved_slack
    for ki in slack_instance.agents:
        assert primal.x[ki] == pytest.approx(2.0, abs=1e-8)
    assert dual.lam["l1"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert dual.lam["l2"] == pytest.approx(0.0, abs=1e-8)


def test_two_member_group_shares_rate(two_member_instance, solved_two_member):
    primal, dual = solved_two_member
    assert primal.x[AgentId(1, 1)] == pytest.approx(7.0, abs=1e-7)
    assert primal.x[AgentId(1, 2)] == pytest.approx(7.0, abs=1e-7)
    assert primal.x[AgentId(2, 1)] == pytest.approx(3.0, abs=1e-7)
    assert dual.lam["l1"] == pytest.approx(0.25, abs=1e-7)
    assert dual.mu[(AgentId(1, 1), "l1")] == pytest.approx(0.125, abs=1e-7)


# ---------------------------------------------------------------------------
# KKT residual machinery


def test_solved_residuals_meet_tolerance(symmetric_instance, solved_symmetric):
    primal, dual = solved_symmetric
    report = kkt_residuals(symmetric_instance, primal, dual.lam, dual.mu)
    assert report.max_residual <= 1e-9


def test_random_instances_solve_to_tolerance():
    for seed in (1, 5, 9, 13, 17):
        inst = random_instance(seed, n_groups=3, max_group_size=2, n_links=2)
        primal, dual = solve_cp(inst, tol=1e-8)
        report = kkt_residuals(inst, primal, dual.lam, dual.mu)
        assert report.max_residual <= 1e-8, f"seed {seed}"
        assert constraint_violation(inst, primal.x, primal.m) <= 1e-8


def _acceptance_draw(instance_seed):
    """The acceptance batch's draw at an instance seed (batch seed * 1009 +
    attempt)."""
    groups, members, links, density = batch_shape(instance_seed // 1009)
    return random_instance(instance_seed, n_groups=groups, max_group_size=members,
                           n_links=links, density=density)


DEGENERATE_DRAWS = [
    pytest.param(lambda: _acceptance_draw(1009), id="acceptance-1009"),
    pytest.param(lambda: _acceptance_draw(16144), id="acceptance-16144"),
    pytest.param(lambda: _acceptance_draw(41369), id="acceptance-41369"),
    pytest.param(lambda: random_instance(109981, n_groups=8, max_group_size=3, n_links=8),
                 id="large-109981"),
    pytest.param(lambda: random_instance(131172, n_groups=12, max_group_size=3, n_links=12),
                 id="large-131172"),
]


@pytest.mark.parametrize("instance", DEGENERATE_DRAWS)
def test_degenerate_draws_solve_to_the_residual_floor(instance):
    # On the first four a primal log-barrier's extracted duals stall: one
    # link's shadow price is orders of magnitude below another's. On 131172
    # a starved agent's x >= 0 multiplier holds the residual at 1.8 for
    # seventeen steps while the gap keeps falling, which must not read as a
    # stall.
    inst = instance()
    primal, dual = solve_cp(inst, tol=1e-9)
    assert dual.residuals.max_residual <= 1e-12
    assert check_a4(inst, primal).holds


def test_ladder_top_solves_to_the_residual_floor():
    # 50 agents on 25 links: the largest rung of the size ladder.
    inst = random_instance(1, n_groups=25, max_group_size=3, n_links=25)
    primal, dual = solve_cp(inst, tol=1e-9)
    assert dual.residuals.max_residual <= 1e-12
    assert check_a4(inst, primal).holds


def test_stalled_gap_ends_the_solve_on_patience(monkeypatch):
    # 110 agents on 50 links: the residual cannot reach RESIDUAL_FLOOR and
    # stops improving near step 40, while s.y keeps falling in its last
    # digits. Patience reads s.y against a relative PROGRESS, so the loop
    # stops PATIENCE steps after s.y last fell by that much (63 steps at
    # one BLAS thread, 53 at two) instead of running to MAX_ITERS.
    steps, real = [0], centralized._mehrotra_step

    def counted(*args):
        steps[0] += 1
        return real(*args)
    monkeypatch.setattr(centralized, "_mehrotra_step", counted)
    _, dual = solve_cp(random_instance(1, n_groups=50, max_group_size=3, n_links=50))
    assert steps[0] <= 80
    assert dual.residuals.max_residual <= 1e-11


@pytest.mark.parametrize("instance", DEGENERATE_DRAWS + [
    pytest.param(lambda: random_instance(1, n_groups=12, max_group_size=3, n_links=12),
                 id="ladder-12")])
def test_structured_direction_solves_the_dense_system(instance, monkeypatch):
    """Every predictor and corrector direction of a solve, from the
    eliminated m-block, solves the dense normal equations N dz = rhs to a
    relative residual of 1e-9, as the dense equilibrated solve does."""
    calls, iterate = [], []
    real, real_step = centralized._newton_solver, centralized._mehrotra_step

    def stepping(ws, z, *rest):  # the solver takes v''(x), not x: record x here
        iterate[:] = [z[:ws.nx]]
        return real_step(ws, z, *rest)

    def recording(ws, d, d2v):
        solve, x = real(ws, d, d2v), iterate[0]

        def recorded(rhs):
            dz = solve(rhs)
            calls.append((ws, x, d, rhs, dz))
            return dz
        return recorded

    monkeypatch.setattr(centralized, "_mehrotra_step", stepping)
    monkeypatch.setattr(centralized, "_newton_solver", recording)
    solve_cp(instance(), tol=1e-9)
    assert calls
    for ws, x, d, rhs, dz in calls:
        N = normal_matrix(ws, x, d)
        bound = 1e-9 * np.max(np.abs(rhs))
        assert np.max(np.abs(N @ dz - rhs)) <= bound
        assert np.max(np.abs(N @ dense_direction(N, rhs) - rhs)) <= bound


@pytest.mark.parametrize("bx", [0.0, 1.7, 30.0, 41.5],
                         ids=["zero", "mid", "saturated", "deep"])
def test_step_slopes_match_the_valuations(bx):
    """The step's v' is each valuation's deriv, and its v'', derived from
    v' elementwise, is each valuation's second to 4e-15 relative, for both
    families at b * x = bx."""
    inst = make_instance({"l1": 10.0}, [
        (1, 1, LOG_SAT, 2.7, 1.9, {"l1": 1.0}), (1, 2, LOG_SAT, 0.6, 4.3, {"l1": 1.0}),
        (2, 1, EXP_SAT, 3.1, 0.7, {"l1": 1.0}), (2, 2, EXP_SAT, 0.9, 4.9, {"l1": 1.0})])
    ws = centralized._Workspace(inst)
    x = np.array([bx / v.b for v in ws.vals])
    dv, d2v = ws.slopes(x)
    for v, xj, first, second in zip(ws.vals, x.tolist(), dv.tolist(), d2v.tolist()):
        assert first == v.deriv(xj)
        assert abs(second - v.second(xj)) <= 4e-15 * abs(v.second(xj))


def test_step_lengths_match_per_vector_minimum():
    """One call's two step lengths are, bit for bit, the smallest -v / dv
    over the negative entries of (s, ds) and of (y, dy), capped at 1."""
    rng = np.random.default_rng(5)

    def alone(v, dv):
        return min([1.0] + [-a / b for a, b in zip(v.tolist(), dv.tolist()) if b < 0.0])

    for n in (1, 3, 40):
        for _ in range(50):
            s, y = rng.uniform(1e-6, 2.0, (2, n))
            ds, dy = rng.normal(size=(2, n)) * rng.choice([0.0, 1e-3, 1.0, 1e3], (2, n))
            assert (centralized._max_steps(np.concatenate((s, y)), np.concatenate((ds, dy)), n)
                    == [alone(s, ds), alone(y, dy)])


def test_direction_kernel_is_numpys_solve():
    """The step's LU solve (_lu_solve, LAPACK's gesv called directly) equals
    np.linalg.solve bit for bit on diagonally equilibrated SPD matrices of
    1 to 40 rows, the form the step hands it."""
    rng = np.random.default_rng(29)
    for n in range(1, 41):
        for _ in range(3):
            G = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, n)
            S = G @ G.T + np.diag(rng.uniform(1e-3, 1.0, n))
            scale = 1.0 / np.sqrt(S.diagonal())
            S *= scale[:, None] * scale[None, :]
            b = rng.normal(size=n)
            assert _hex(centralized._lu_solve(S, b)) == _hex(np.linalg.solve(S, b))


def test_singular_schur_complement_raises_out_of_the_step():
    """Two one-member groups on one link, with every d = y / s at 1 and
    v''(x) set to the x rows' d, leave a Schur complement whose entries are
    all equal: its LU meets an exact zero pivot. The step raises
    LinAlgError, which solve_cp catches, instead of returning NaNs."""
    inst = make_instance({"l1": 10.0}, [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                                        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0})])
    ws = centralized._Workspace(inst)
    z, s, y = np.full(ws.nx + ws.nm, 1.0), np.ones(len(ws.offset)), np.ones(len(ws.offset))
    dv, _, price, r_dual, slack = centralized._step_terms(ws, z, y)
    with pytest.raises(np.linalg.LinAlgError):
        centralized._mehrotra_step(ws, z, s, y, (dv, np.ones(ws.nx), price, r_dual, slack),
                                   float(s @ y))


@pytest.fixture(scope="module")
def corpus_draws():
    return corpus()


def _at_the_threshold(inst, primal):
    """primal with the rate of its first agent alone in its group on some
    link at its zero-rate threshold, which counts as 0, and its last
    agent's one ulp above its own."""
    T = _tables(inst)
    first = next(a for a, slots in enumerate(T.agent_slots)
                 if any(len(T.slot_pairs[s]) == 1 for s in slots))
    x = dict(primal.x)
    x[T.agents[first]] = T.zero_rate[first]
    x[T.agents[-1]] = math.nextafter(T.zero_rate[-1], math.inf)
    return PrimalSolution(x, primal.m)


def test_single_pass_scans_match_dict_walks(two_member_instance, a4_fail_instance,
                                            corpus_draws):
    """check_a4 and argmax_ties equal the link-by-link dict walks, key order
    included, on every fifth corpus draw, on a peak tie, on a starved group
    and on a corpus draw with one agent at its zero-rate threshold and one
    an ulp above its own; the solver's own sharing report is check_a4's."""
    cases = [inst for _, inst in corpus_draws[::5]] + [two_member_instance, a4_fail_instance]
    for inst in cases:
        primal, dual = solve_cp(inst)
        a4 = check_a4(inst, primal)
        assert (a4.s_sizes, a4.holds) == reference_a4(inst, primal)
        assert list(a4.s_sizes) == list(inst.link_ids)
        assert (dual.residuals.s_sizes, dual.residuals.a4_holds) == (a4.s_sizes, a4.holds)
        ties = argmax_ties(inst, primal)
        assert list(ties.items()) == list(reference_ties(inst, primal).items())
    inst = corpus_draws[-1][1]
    primal = _at_the_threshold(inst, solve_cp(inst)[0])
    a4 = check_a4(inst, primal)
    assert (a4.s_sizes, a4.holds) == reference_a4(inst, primal)
    assert a4.s_sizes != check_a4(inst, solve_cp(inst)[0]).s_sizes
    assert list(argmax_ties(inst, primal).items()) == list(reference_ties(inst, primal).items())
    assert argmax_ties(two_member_instance, solve_cp(two_member_instance)[0]) == {
        (1, "l1"): [1, 2], (2, "l1"): [1]}
    assert not check_a4(a4_fail_instance, solve_cp(a4_fail_instance)[0]).holds


def test_saturated_draw_replays_exactly():
    # Every dual is below 5e-8 here, so an interior iterate leaves the binding
    # link slack by gap / lambda; the finishing step must make it bind.
    inst = _acceptance_draw(32288)
    primal, dual = solve_cp(inst, tol=1e-9)
    assert max(dual.lam.values()) < 1e-7
    alloc = allocate(inst, primal.x)
    assert abs(alloc.r - 1.0) <= 1e-12
    assert max(abs(alloc.x[ki] - primal.x[ki]) for ki in inst.agents) <= 1e-12


def test_stall_raises_instead_of_returning():
    # No solve reaches a max residual of 1e-16 in double precision.
    with pytest.raises(SolverError, match="stalled"):
        solve_cp(random_instance(1, 3, 2, 2), tol=1e-16)


def _chain_109():
    """solve_large's chain 109 draw: 38 iterates, 18 of them on a residual
    plateau at 0.82 while s.y falls at some steps and not at others."""
    return random_instance(109 * 1009, n_groups=8, max_group_size=3, n_links=8)


@pytest.mark.parametrize("path", ["floor-0", "max-iters", "linalg-error", "tied-residuals",
                                  "unreachable-tol", "chain-109", "patience"])
def test_deferred_measurement_returns_the_eager_iterate(path, monkeypatch):
    """solve_cp measures an iterate only when it can stop the loop, yet
    returns the x, m, lambda, mu and residual blocks of the loop that
    measures every iterate (kkt_reference.eager_solve) bit for bit, or
    raises its SolverError text, on paths that do not end at the floor:
    RESIDUAL_FLOOR at 0 (there the chain 109 draw runs to MAX_ITERS, seeds
    1 and 2 end on a failed step and seed 3 on patience), MAX_ITERS at 9,
    a step that raises LinAlgError from the seventh on, a residual of 1 at
    every iterate, where the first iterate is the best (these three at tol
    1e300, so that they return), and a tol no solve reaches; on the chain
    109 draw at the default settings; and at the default settings on 110
    agents, whose solve ends on patience. Both loops take the same number
    of steps. At MAX_ITERS both run 9 steps and examine the 10 iterates
    they reach, the last step's included: solve_cp bounds each once
    (_bound) and measures each once at the exit, eager_solve measures
    each (_residual)."""
    tol, steps, finite, examined = centralized.DEFAULT_TOL, [0], [True], {}
    if path in ("floor-0", "max-iters"):
        monkeypatch.setattr(centralized, "RESIDUAL_FLOOR", 0.0)
    if path == "max-iters":
        monkeypatch.setattr(centralized, "MAX_ITERS", 9)
        for name in ("_bound", "_residual"):
            def tally(*args, _name=name, _real=getattr(centralized, name)):
                examined[_name] = examined.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(centralized, name, tally)
    real = centralized._mehrotra_step

    def counted(*args):
        steps[0] += 1
        if path == "linalg-error" and steps[0] > 6:
            raise np.linalg.LinAlgError("singular")
        finite[0] = False
        z, s, y = real(*args)
        finite[0] = all(np.isfinite(v).all() for v in (z, s, y))
        return z, s, y
    monkeypatch.setattr(centralized, "_mehrotra_step", counted)
    if path == "tied-residuals":
        monkeypatch.setattr(centralized, "_residual", lambda *args: (1.0, 0.0, 0.0, 0.0))
    if path in ("max-iters", "linalg-error", "tied-residuals"):
        tol = 1e300  # return the best iterate, however far from optimal
    if path == "unreachable-tol":
        tol = 1e-16
    cases = [_chain_109()]
    if path == "patience":
        cases = [random_instance(1, n_groups=50, max_group_size=3, n_links=50)]
    elif path != "chain-109":
        cases += [random_instance(seed, 3, 2, 2) for seed in (1, 2, 3)]

    def bits(values):
        return [float(v).hex() for v in values]

    for inst in cases:
        ws = centralized._Workspace(inst)
        steps[0] = 0
        examined.clear()
        try:
            blocks, x, m, y = eager_solve(inst, tol)
            want = (bits(blocks), bits(x), bits(m), bits(y[ws.nx:]))
        except SolverError as exc:
            want = str(exc)
        assert path != "max-iters" or (steps[0], examined) == (9, {"_residual": 10})
        eager_steps, steps[0] = steps[0], 0
        examined.clear()
        try:
            primal, dual = solve_cp(inst, tol)
            r = dual.residuals
            got = (bits([r.primal_feas, r.dual_feas, r.comp_slack, r.stationarity]),
                   bits(primal.x[ki] for ki in ws.agents), bits(primal.m[p] for p in ws.mpairs),
                   bits([dual.lam[lid] for lid in inst.link_ids] + [dual.mu[p] for p in ws.bnd]))
        except SolverError as exc:
            got = str(exc)
        assert got == want
        assert steps[0] == eager_steps
        assert isinstance(got, str) == (path == "unreachable-tol")
        assert path != "linalg-error" or steps[0] == 7
        assert path != "max-iters" or examined == {"_bound": 10, "_residual": 10}
        if path == "patience":  # no floor, no failed step, steps to spare
            assert r.max_residual > centralized.RESIDUAL_FLOOR
            assert finite[0] and steps[0] < centralized.MAX_ITERS


def _hex(values):
    return [float(v).hex() for v in values]


def _chain_116035():
    """solve_large's chain 115 draw: agent 1.3 is saturated, v'(x) = 5.3e-14."""
    return random_instance(116035, n_groups=8, max_group_size=3, n_links=8)


def test_solve_returns_the_eager_iterate_on_the_corpus(corpus_draws):
    """On every tenth corpus draw, on the saturated chain draw 116035 and on
    acceptance draw 32288, whose duals are all below 5e-8, solve_cp returns
    eager_solve's x, m, lambda, mu and residual blocks bit for bit."""
    cases = [inst for _, inst in corpus_draws[::10]] + [_chain_116035(), _acceptance_draw(32288)]
    for inst in cases:
        ws = centralized._Workspace(inst)
        blocks, x, m, y = eager_solve(inst)
        primal, dual = solve_cp(inst)
        r = dual.residuals
        assert _hex([r.primal_feas, r.dual_feas, r.comp_slack, r.stationarity]) == _hex(blocks)
        assert _hex(primal.x[ki] for ki in ws.agents) == _hex(x)
        assert _hex(primal.m[p] for p in ws.mpairs) == _hex(m)
        assert _hex(dual.lam[lid] for lid in inst.link_ids) == _hex(y[ws.nx:ws.nx + ws.nl])
        assert _hex(dual.mu[p] for p in ws.bnd) == _hex(y[ws.nx + ws.nl:])


def test_step_bound_never_exceeds_the_residual(monkeypatch):
    """At every iterate of these solves the step bound (_bound) is at most
    the residual of the finished iterate (_measure): acceptance draws of
    batch seeds 1-10 (attempt 0), the chain 109 draw, the saturated chain
    draw 116035 and the 50-agent ladder rung. The overpricing part decides
    some iterates that the link-dual gaps leave at or below the floor."""
    seen, real = [], centralized._step_terms

    def recording(ws, z, y):
        terms = real(ws, z, y)
        seen.append((ws, z, y, terms))
        return terms
    monkeypatch.setattr(centralized, "_step_terms", recording)
    for inst in ([_acceptance_draw(seed * 1009) for seed in range(1, 11)]
                 + [_chain_109(), _chain_116035(),
                    random_instance(1, n_groups=25, max_group_size=3, n_links=25)]):
        solve_cp(inst)
    overpriced = 0
    for ws, z, y, terms in seen:
        bound = centralized._bound(ws, z, terms)
        assert bound <= centralized._measure(ws, 0, y, *centralized._finished(ws, z, y))[0]
        link_gaps = float(np.abs(terms[3][ws.nx:]).max())
        overpriced += link_gaps <= centralized.RESIDUAL_FLOOR < bound
    assert len(seen) > 200 and overpriced > 20


@pytest.mark.parametrize("case", ["negative-slack", "starved"])
def test_step_bound_skips_what_the_finish_may_undo(case):
    """Two agents on one link of capacity 10 priced at v'(5) = 1/6 (duals
    lambda = mu = 1/6), whose iterate finishes at x = 5 each with a residual
    below the floor. With x = m = 5 (1 + 1e-9) the link's slack is -1e-8: the
    finish scales x down, v' rises by 1.4e-10 and the overpricing at the
    unfinished x is no bound, so it is not used. With x = m = 4.9 and a
    third agent at x = 0, priced above its v'(0) = 0.1, the third agent's
    overpricing is allowed at zero and is no bound either."""
    inst = make_instance({"l1": 10.0}, [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                                        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
                                        (3, 1, LOG_SAT, 0.1, 1.0, {"l1": 1.0})])
    ws = centralized._Workspace(inst)
    x = [5.0 * (1.0 + 1e-9)] * 2 + [0.0] if case == "negative-slack" else [4.9, 4.9, 0.0]
    z = np.array(x + x)
    y = np.array([0.0] * 3 + [1.0 / 6.0] * 4)
    terms = centralized._step_terms(ws, z, y)
    residual = centralized._measure(ws, 0, y, *centralized._finished(ws, z, y))[0]
    dv, _, price, _, slack = terms
    assert (slack.min() < 0.0) == (case == "negative-slack")
    assert residual <= centralized.RESIDUAL_FLOOR < 1e-10 < (price - dv).max()
    assert centralized._bound(ws, z, terms) <= residual


def test_step_bound_allows_a_faithfully_rounded_exp(monkeypatch):
    """OVERPRICE_MARGIN covers an exp_sat v' that rises by an ulp where x
    rises. Two exp_sat agents (b = 0.01) on one link of capacity 10 sit at
    x = m = 5 less an ulp, priced one ulp of v'(x) or less past
    RESIDUAL_FLOOR above v'(x) (lambda = mu). The finish scales x up to 5,
    where the correctly rounded v' is the same double. A math.exp that is
    faithfully but not monotonically rounded may return one ulp more there,
    which the patched deriv does; a correctly rounded one never does. Then
    the finished iterate's residual is at or below the floor, and the step
    bound, which the margin keeps below it, does not skip the iterate."""
    inst = make_instance({"l1": 10.0}, [(1, 1, EXP_SAT, 1.0, 0.01, {"l1": 1.0}),
                                        (2, 1, EXP_SAT, 1.0, 0.01, {"l1": 1.0})])
    ws = centralized._Workspace(inst)
    x0 = math.nextafter(5.0, 0.0)
    z = np.full(4, x0)
    deriv = Valuation.deriv
    v0 = deriv(inst.valuation(AgentId(1, 1)), x0)
    assert deriv(inst.valuation(AgentId(1, 1)), 5.0) == v0
    over = math.ceil(centralized.RESIDUAL_FLOOR / math.ulp(v0)) * math.ulp(v0)
    y = np.array([0.0, 0.0] + [v0 + over] * 3)
    monkeypatch.setattr(Valuation, "deriv", lambda val, x: (
        math.nextafter(deriv(val, x), math.inf) if x > x0 else deriv(val, x)))
    terms = centralized._step_terms(ws, z, y)
    x, _, _ = done = centralized._finished(ws, z, y)
    residual = centralized._measure(ws, 0, y, *done)[0]
    assert x.tolist() == [5.0, 5.0]
    assert residual <= centralized.RESIDUAL_FLOOR < (terms[2] - terms[0]).min()
    assert centralized._bound(ws, z, terms) <= residual


@pytest.mark.parametrize("case", ["patience-110", "floor-1e-15"])
def test_non_floor_exit_finishes_and_measures_each_iterate_once(case, monkeypatch):
    """_finish and _residual each run at most once per iterate (steps + 1
    of them) on a solve that ends above the floor: every finished z and
    every measured x is a different array. On 110 agents the solve ends on
    patience. On acceptance draw 9081 with RESIDUAL_FLOOR at 1e-15 some
    iterates pass the step bound but not the finished complementarity
    block, and the exit measures them from the arrays the loop finished."""
    calls = collections.defaultdict(list)

    def counted(name):
        real = getattr(centralized, name)

        def wrapper(ws, first, *rest):
            calls[name].append(first)
            return real(ws, first, *rest)
        monkeypatch.setattr(centralized, name, wrapper)
    for name in ("_mehrotra_step", "_finish", "_residual"):
        counted(name)
    if case == "patience-110":
        inst = random_instance(1, n_groups=50, max_group_size=3, n_links=50)
    else:
        monkeypatch.setattr(centralized, "RESIDUAL_FLOOR", 1e-15)
        inst = _acceptance_draw(9081)
    _, dual = solve_cp(inst)
    iterates = len(calls["_mehrotra_step"]) + 1
    assert dual.residuals.max_residual > centralized.RESIDUAL_FLOOR
    assert iterates <= centralized.MAX_ITERS
    for name in ("_finish", "_residual"):
        assert len({id(v) for v in calls[name]}) == len(calls[name]) <= iterates


def test_floor_exit_measures_only_iterates_within_the_comp_floor(monkeypatch):
    """On a solve that ends at the residual floor, _residual runs once per
    finished iterate whose finished complementarity block is at or below
    RESIDUAL_FLOOR, and for no other: on acceptance draw 19172 the step
    bound passes some iterates whose comp block, once finished, shows them
    above the floor (bound-only finishes), so _residual runs fewer times
    than _finish."""
    calls = collections.Counter()

    def counted(name):
        real = getattr(centralized, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(centralized, name, wrapper)
    for name in ("_finish", "_residual"):
        counted(name)
    comps = []
    real_finished = centralized._finished

    def finished(*args):
        done = real_finished(*args)
        comps.append(float(done[2][1].max()))
        return done
    monkeypatch.setattr(centralized, "_finished", finished)
    _, dual = solve_cp(_acceptance_draw(19172))
    assert dual.residuals.max_residual <= centralized.RESIDUAL_FLOOR
    assert len(comps) == calls["_finish"]
    assert calls["_residual"] == sum(c <= centralized.RESIDUAL_FLOOR for c in comps)
    assert calls["_residual"] < calls["_finish"]


def test_perturbed_multiplier_shows_in_comp_slack(slack_instance, solved_slack):
    primal, dual = solved_slack
    ki = slack_instance.agents[0]
    mu = dict(dual.mu)
    mu[(ki, "l2")] += 0.1  # the member bound on l2 is far from tight
    report = kkt_residuals(slack_instance, primal, dual.lam, mu)
    slack = primal.m[(ki.group, "l2")] - primal.x[ki]  # alpha = 1
    assert slack > 1.0
    assert report.comp_slack >= 0.1 * slack - 1e-6


def test_zero_point_stationarity_is_max_initial_slope(symmetric_instance):
    zero = PrimalSolution(
        x={ki: 0.0 for ki in symmetric_instance.agents},
        m={key: 0.0 for key in [(1, "l1"), (2, "l1")]},
    )
    lam = {"l1": 0.0}
    mu = {(ki, "l1"): 0.0 for ki in symmetric_instance.agents}
    report = kkt_residuals(symmetric_instance, zero, lam, mu)
    # v'(0) = 1 for both agents and the inequality branch is violated by 1
    assert report.stationarity == pytest.approx(1.0)


BLOCKS = ("primal_feas", "dual_feas", "comp_slack", "stationarity")


@pytest.mark.parametrize("name", [
    "symmetric_instance", "oracle_instance", "slack_instance", "two_member_instance",
    "chain_instance", "three_group_instance", "saturated_instance",
    "random-3", "random-41", "acceptance-16144", "ladder-12",
])
def test_residual_blocks_match_reference_bitwise(name, request):
    """At the solved point and with entries of x, m, lambda and mu negated,
    zeroed or scaled, every block of kkt_residuals is the reference loop's
    float bit for bit."""
    if name.startswith("random"):
        inst = random_instance(int(name.split("-")[1]), n_groups=4, max_group_size=3,
                               n_links=3)
    elif name.startswith("acceptance"):
        inst = _acceptance_draw(int(name.split("-")[1]))
    elif name.startswith("ladder"):
        g = int(name.split("-")[1])
        inst = random_instance(1, n_groups=g, max_group_size=3, n_links=g)
    else:
        inst = request.getfixturevalue(name)
    primal, dual = solve_cp(inst, tol=1e-9)
    factors = st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-2.0, 2.0))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def check(data):
        def perturbed(values):
            # A few entries, or every entry, so that no single term dominates.
            out = dict(values)
            keys = sorted(out, key=repr)
            if not data.draw(st.booleans()):
                keys = data.draw(st.lists(st.sampled_from(keys), max_size=3))
            for key in keys:
                out[key] *= data.draw(factors)
            return out

        point = PrimalSolution(perturbed(primal.x), perturbed(primal.m))
        lam, mu = perturbed(dual.lam), perturbed(dual.mu)
        try:
            want = reference_residuals(inst, point, lam, mu)
        except ArithmeticError:  # v'(x) has a pole at a negative rate
            assume(False)
        report = kkt_residuals(inst, point, lam, mu)
        assert [getattr(report, b).hex() for b in BLOCKS] == [v.hex() for v in want]

    check()


def test_group_dual_sums_run_in_member_order():
    # A three-member group whose duals sum to different floats in member
    # order and in reverse; with lambda = 0 that sum sets the stationarity
    # block, which the max norm otherwise hides.
    inst = make_instance({"l1": 10.0}, [(k, i, LOG_SAT, 1.0, 1.0, {"l1": 1.0})
                                        for k, i in ((1, 1), (1, 2), (1, 3), (2, 1))])
    tiny = 4.0 * 0.6 * 2.0 ** -52
    assert (4.0 + tiny) + tiny != (tiny + tiny) + 4.0
    zero = PrimalSolution(x={ki: 0.0 for ki in inst.agents},
                          m={(1, "l1"): 0.0, (2, "l1"): 0.0})
    lam = {"l1": 0.0}
    mu = {(ki, "l1"): v for ki, v in zip(inst.agents, (4.0, tiny, tiny, 0.0))}
    report = kkt_residuals(inst, zero, lam, mu)
    assert report.stationarity == (4.0 + tiny) + tiny
    assert report.stationarity.hex() == reference_residuals(inst, zero, lam, mu)[3].hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("target", ["x", "m", "lam", "mu"])
def test_non_finite_entry_reads_as_infinite(symmetric_instance, solved_symmetric,
                                            target, bad):
    primal, dual = solved_symmetric
    parts = {"x": dict(primal.x), "m": dict(primal.m),
             "lam": dict(dual.lam), "mu": dict(dual.mu)}
    parts[target][next(iter(parts[target]))] = bad
    report = kkt_residuals(symmetric_instance, PrimalSolution(parts["x"], parts["m"]),
                           parts["lam"], parts["mu"])
    assert report.max_residual == math.inf
    if target in ("x", "m"):
        assert constraint_violation(symmetric_instance, parts["x"], parts["m"]) == math.inf


def test_solve_builds_one_certificate(monkeypatch, chain_instance):
    # The loop measures iterates on arrays; only the returned one gets the
    # sharing count, and the dict-based kkt_residuals is never called.
    calls = []
    real = centralized.check_a4
    monkeypatch.setattr(centralized, "check_a4",
                        lambda inst, primal: calls.append(1) or real(inst, primal))
    monkeypatch.setattr(centralized, "kkt_residuals", None)
    primal, dual = solve_cp(chain_instance, tol=1e-9)
    assert len(calls) == 1
    assert dual.residuals.a4_holds == real(chain_instance, primal).holds


# ---------------------------------------------------------------------------
# A4


def test_a4_holds_on_symmetric(symmetric_instance, solved_symmetric):
    primal, _ = solved_symmetric
    report = check_a4(symmetric_instance, primal)
    assert report.holds
    assert report.s_sizes["l1"] == 2


def test_a4_zero_point(symmetric_instance):
    zero = PrimalSolution(
        x={ki: 0.0 for ki in symmetric_instance.agents},
        m={(1, "l1"): 0.0, (2, "l1"): 0.0},
    )
    report = check_a4(symmetric_instance, zero)
    assert not report.holds
    assert report.s_sizes["l1"] == 0


def test_a4_zeroes_rates_at_the_route_threshold():
    """A rate above RATE_ATOL times its link's capacity but at or below its
    agent's zero-rate threshold (RATE_ATOL times the largest capacity on its
    route) counts as 0 in the sharing count, as the replay reads it, so l1
    carries one demanding group; the dict walk agrees."""
    inst = make_instance({"l1": 1.0, "l2": 100.0}, [
        (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
        (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0}),
        (4, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0})])
    x = dict(zip(inst.agents, [0.5, 5e-8, 50.0, 40.0]))
    starved = AgentId(2, 1)
    assert RATE_ATOL * inst.capacity["l1"] < x[starved] <= _tables(inst).zero_rate[1]
    primal = PrimalSolution(x, {(k, lid): x[AgentId(k, 1)] for k, lid in inst.members_on_link})
    report = check_a4(inst, primal)
    assert report.s_sizes == {"l1": 1, "l2": 2}
    assert not report.holds
    assert (report.s_sizes, report.holds) == reference_a4(inst, primal)


def test_a4_fails_when_one_group_starved(a4_fail_instance):
    primal, _ = solve_cp(a4_fail_instance, tol=1e-9)
    assert primal.x[AgentId(1, 1)] == pytest.approx(10.0, abs=1e-6)
    assert primal.x[AgentId(2, 1)] == pytest.approx(0.0, abs=1e-6)
    assert not check_a4(a4_fail_instance, primal).holds


# ---------------------------------------------------------------------------
# optimality properties


def test_interior_start_does_not_matter(oracle_instance):
    pa, _ = solve_cp(oracle_instance, tol=1e-9, init_seed=1)
    pb, _ = solve_cp(oracle_instance, tol=1e-9, init_seed=2)
    for ki in oracle_instance.agents:
        assert pa.x[ki] == pytest.approx(pb.x[ki], abs=1e-6)


def test_welfare_dominates_random_feasible_points(chain_instance):
    primal, _ = solve_cp(chain_instance, tol=1e-9)
    best = welfare(chain_instance, primal.x)
    rng = np.random.default_rng(7)
    found = 0
    while found < 100:
        x = {ki: float(rng.uniform(0.0, 10.0)) for ki in chain_instance.agents}
        m = {}
        for (k, lid), members in chain_instance.members_on_link.items():
            m[(k, lid)] = max(
                chain_instance.alpha[(AgentId(k, i), lid)] * x[AgentId(k, i)]
                for i in members
            )
        if constraint_violation(chain_instance, x, m) > 0.0:
            continue
        found += 1
        assert welfare(chain_instance, x) <= best + 1e-9


def test_some_link_is_tight_at_optimum():
    for seed in (21, 22, 23):
        inst = random_instance(seed, n_groups=3, max_group_size=2, n_links=2)
        primal, _ = solve_cp(inst, tol=1e-9)
        slacks = []
        for lid in inst.link_ids:
            used = sum(primal.m[(k, lid)] for k in inst.groups_on_link[lid])
            slacks.append((inst.capacity[lid] - used) / inst.capacity[lid])
        assert min(slacks) <= 1e-8


def test_solution_export_deterministic(symmetric_instance, solved_symmetric):
    primal, dual = solved_symmetric
    a = solution_to_json(symmetric_instance, primal, dual)
    b = solution_to_json(symmetric_instance, primal, dual)
    assert a == b
    assert a.endswith("\n")


def test_tolerance_must_be_positive(symmetric_instance):
    with pytest.raises((ValueError, SolverError)):
        solve_cp(symmetric_instance, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tolerance_must_be_finite(tol):
    """A NaN tol compares False both ways, so a check for tol <= 0 passes
    it, and res > tol never holds: a stalled solve would come back as
    solved. An infinite tol passes any residual. Both are refused before
    the solve starts, as the CLI's --tol refuses them."""
    with pytest.raises(ValueError, match="finite and positive"):
        solve_cp(random_instance(1), tol=tol)
