"""Instance model: validation, orderings, generator, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmech import (
    EXP_SAT,
    LOG_SAT,
    AgentId,
    MechanismParams,
    Valuation,
    constraint_violation,
    evaluate,
    instance_from_json,
    instance_to_json,
    random_instance,
    solve_cp,
    validate,
    welfare,
    zero_message,
)
from mcastmech import model
from mcastmech.errors import InstanceFormatError
from mcastmech.centralized import solution_to_dict
from mcastmech.model import seq_sum

from conftest import make_instance
from evaluate_reference import member_agents_on_link, neighbours


def codes(report):
    return {code for code, _ in report.violations}


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_well_formed(symmetric_instance):
    report = validate(symmetric_instance)
    assert report.ok
    assert report.violations == []


def test_validate_flags_single_group_link():
    inst = make_instance(
        {"l1": 10.0, "l2": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    report = validate(inst)
    assert not report.ok
    assert "A3" in codes(report)


def test_validate_flags_zero_capacity():
    inst = make_instance(
        {"l1": 0.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    assert "positivity" in codes(validate(inst))


def test_validate_flags_bad_valuation_params():
    inst = make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 0.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, -2.0, {"l1": 1.0}),
        ],
    )
    assert codes(validate(inst)) == {"A1"}


def test_validate_flags_nonpositive_weight():
    inst = make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": -1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    assert "positivity" in codes(validate(inst))


# ---------------------------------------------------------------------------
# group orderings on a link


@pytest.fixture(scope="module")
def sparse_group_instance():
    # group 1 members {2, 5, 9} plus a singleton rival so A3 holds
    return make_instance(
        {"l1": 10.0},
        [
            (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (1, 5, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (1, 9, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 7, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )


def test_group_link_order_ascending(sparse_group_instance):
    assert sparse_group_instance.members_on_link[(1, "l1")] == (2, 5, 9)


def test_successor_wraps_cyclically(sparse_group_instance):
    succ, pred = neighbours(sparse_group_instance)
    assert succ[(AgentId(1, 9), "l1")] == AgentId(1, 2)
    assert succ[(AgentId(1, 2), "l1")] == AgentId(1, 5)
    assert pred[(AgentId(1, 2), "l1")] == AgentId(1, 9)


def test_two_member_wraparound(two_member_instance):
    succ, pred = neighbours(two_member_instance)
    assert pred[(AgentId(1, 1), "l1")] == AgentId(1, 2)
    assert succ[(AgentId(1, 2), "l1")] == AgentId(1, 1)


def _assert_one_slot_order(inst):
    """The solver's m and evaluate's n, m, w and w_bar are keyed in
    member_agents_on_link's order, which runs link by link, groups ascending."""
    slots = list(member_agents_on_link(inst))
    assert slots == sorted(slots, key=lambda key: (key[1], key[0]))
    primal, _ = solve_cp(inst)
    profile = {ki: zero_message(inst, ki, "wbb") for ki in inst.agents}
    for ki in inst.agents:
        profile[ki].y = primal.x[ki]
    out = evaluate(inst, profile, MechanismParams())
    assert list(primal.m) == list(out.n) == list(out.m) == list(out.w) == slots
    assert list(out.w_bar) == slots


@pytest.mark.parametrize("name", ["symmetric_instance", "oracle_instance", "slack_instance",
                                  "two_member_instance", "chain_instance",
                                  "three_group_instance", "a4_fail_instance",
                                  "saturated_instance"])
def test_fixture_slots_share_one_order(name, request):
    _assert_one_slot_order(request.getfixturevalue(name))


@pytest.mark.parametrize("shape", [(1, 3, 2, 2), (4, 3, 3, 3), (7, 4, 3, 5), (9, 2, 3, 6),
                                   (12, 3, 3, 4)])
def test_fresh_draw_is_compiled_once_for_solver_and_mechanism(shape, monkeypatch):
    """A fresh instance's solve and evaluate build one compiled table, the
    instance's cached one, and key their slots alike."""
    builds, build = [], model._Tables.__init__

    def counted(tables, instance):
        builds.append(tables)
        build(tables, instance)

    monkeypatch.setattr(model._Tables, "__init__", counted)
    inst = random_instance(*shape)
    _assert_one_slot_order(inst)
    assert len(builds) == 1 and builds[0] is model._tables(inst)


# ---------------------------------------------------------------------------
# random generator


def test_random_instance_deterministic():
    a = random_instance(42, n_groups=3, max_group_size=2, n_links=2, density=0.8)
    b = random_instance(42, n_groups=3, max_group_size=2, n_links=2, density=0.8)
    assert instance_to_json(a) == instance_to_json(b)


def test_random_instance_passes_validation_and_a3():
    for seed in range(10):
        inst = random_instance(seed, n_groups=3, max_group_size=3, n_links=3)
        assert validate(inst).ok
        for lid in inst.link_ids:
            assert len(inst.groups_on_link[lid]) >= 2


def test_random_instance_ranges():
    inst = random_instance(7, n_groups=4, max_group_size=3, n_links=4)
    for alpha in inst.alpha.values():
        assert 0.5 <= alpha <= 2.0
    for cap in inst.capacity.values():
        assert 5.0 <= cap <= 50.0
    for val in inst.valuations.values():
        assert 0.5 <= val.a <= 5.0
        assert 0.5 <= val.b <= 5.0


def test_random_instance_covers_every_link():
    inst = random_instance(3, n_groups=3, max_group_size=2, n_links=4)
    used = set()
    for ki in inst.agents:
        used.update(inst.links_of[ki])
    assert used == set(inst.link_ids)


def test_random_instance_singleton_pair():
    inst = random_instance(2, n_groups=2, max_group_size=1, n_links=1, density=1.0)
    assert len(inst.agents) == 2
    (lid,) = inst.link_ids
    assert len(inst.groups_on_link[lid]) == 2


# ---------------------------------------------------------------------------
# valuation numeric contract


def _fd_slope(v, x):
    h = 1e-6 * max(1.0, abs(x))
    return (v.value(x + h) - v.value(x - h)) / (2.0 * h)


@given(
    family=st.sampled_from([LOG_SAT, EXP_SAT]),
    a=st.floats(0.5, 5.0),
    b=st.floats(0.5, 5.0),
    u=st.floats(1e-4, 1.0),
)
@settings(max_examples=250, deadline=None)
def test_valuation_contract(family, a, b, u):
    # Keep b*x modest for the exponential family: past saturation the
    # value is constant to machine precision and *any* finite difference
    # is pure cancellation noise, not evidence about the derivative.
    x = u * (50.0 if family == LOG_SAT else 6.0 / b)
    v = Valuation(family, a, b)
    assert v.value(0.0) == 0.0
    assert v.deriv(x) > 0.0
    assert v.second(x) < 0.0
    assert _fd_slope(v, x) == pytest.approx(v.deriv(x), rel=1e-6)


def test_valuation_derivative_thousand_points():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        family = LOG_SAT if rng.random() < 0.5 else EXP_SAT
        a, b = rng.uniform(0.5, 5.0, size=2)
        x = rng.uniform(1e-3, 1.0) * (50.0 if family == LOG_SAT else 6.0 / b)
        v = Valuation(family, float(a), float(b))
        assert v.deriv(x) > 0.0
        assert v.second(x) < 0.0
        assert _fd_slope(v, x) == pytest.approx(v.deriv(x), rel=1e-6)


def test_valuation_initial_slope_finite():
    v = Valuation(LOG_SAT, 2.0, 3.0)
    assert v.deriv(0.0) == pytest.approx(6.0)
    w = Valuation(EXP_SAT, 2.0, 3.0)
    assert w.deriv(0.0) == pytest.approx(6.0)


def test_unknown_family_is_a_validation_violation():
    inst = make_instance(
        {"l1": 10.0},
        [
            (1, 1, "cubic", 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )
    assert "A1" in codes(validate(inst))


# ---------------------------------------------------------------------------
# serialization


def test_instance_json_round_trip_is_byte_stable(chain_instance):
    text = instance_to_json(chain_instance)
    again = instance_to_json(instance_from_json(text))
    assert text == again
    doc = json.loads(text)
    assert set(doc) == {"links", "agents"}


@pytest.mark.parametrize("path, value", [
    (("agents", 0, "member"), 1.9),
    (("agents", 0, "group"), True),
    (("agents", 1, "member"), "1"),
    (("links", 0, "capacity"), True),
    (("links", 0, "capacity"), "10.0"),
    (("agents", 0, "route", 0, "alpha"), False),
    (("agents", 1, "valuation", "a"), "1.0"),
    (("agents", 1, "valuation", "b"), None),
    (("agents", 0, "route", 0, "link"), 1.0),
    (("agents", 1, "valuation", "family"), 7),
    (("agents", 1, "valuation", "family"), None),
])
def test_instance_reader_rejects_coerced_values(symmetric_instance, path, value):
    """Group and member must be JSON integers, every numeric field a JSON
    number that is not a boolean, and route links and the valuation family
    JSON strings: a member of 1.9 is not agent 1.1, nor a capacity of true
    1.0, nor a family 7 the family "7"."""
    doc = json.loads(instance_to_json(symmetric_instance))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    with pytest.raises(InstanceFormatError):
        instance_from_json(json.dumps(doc))


def test_instance_reader_keeps_no_coerced_link_id(symmetric_instance):
    """A link id 1 with route links 1 does not load as link "1"."""
    doc = json.loads(instance_to_json(symmetric_instance))
    doc["links"][0]["id"] = 1
    for agent in doc["agents"]:
        agent["route"][0]["link"] = 1
    with pytest.raises(InstanceFormatError, match="link id must be a string"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["capacity", "alpha", "links"])
def test_instance_reader_rejects_repeated_keys(symmetric_instance, key):
    """A key twice in one JSON object is unreadable input: two "capacity"
    entries do not load as the second, as json.loads alone would have it."""
    text = instance_to_json(symmetric_instance).replace(
        f'"{key}": ', f'"{key}": 99.0, "{key}": ', 1)
    with pytest.raises(InstanceFormatError, match=f"JSON key '{key}' repeated"):
        instance_from_json(text)


def test_instance_json_preserves_structure():
    inst = random_instance(11, n_groups=3, max_group_size=2, n_links=3)
    back = instance_from_json(instance_to_json(inst))
    assert back.agents == inst.agents
    assert back.link_ids == inst.link_ids
    assert back.alpha == inst.alpha
    for ki in inst.agents:
        assert back.valuations[ki].family == inst.valuations[ki].family
        assert back.valuations[ki].a == inst.valuations[ki].a


# ---------------------------------------------------------------------------
# welfare helper


def test_welfare_sums_valuations(symmetric_instance):
    x = {ki: 5.0 for ki in symmetric_instance.agents}
    assert welfare(symmetric_instance, x) == pytest.approx(2 * np.log(6.0))


def test_float_sums_add_left_to_right(chain_instance):
    """welfare, the link loads in constraint_violation and the "welfare" of
    solution.json add left to right from 0.0 (seq_sum), so their last bits
    do not depend on the interpreter: builtin sum compensates from Python
    3.12 on, where sum([0.1] * 10) is 1.0."""
    assert seq_sum([0.1] * 10) == 0.9999999999999999
    inst = chain_instance
    x = {ki: 0.1 * (j + 1) for j, ki in enumerate(inst.agents)}
    want = 0.0
    for ki in inst.agents:
        want += inst.valuation(ki).value(x[ki])
    assert welfare(inst, x) == want
    primal, dual = solve_cp(inst)
    assert solution_to_dict(inst, primal, dual)["welfare"] == welfare(inst, primal.x)
    # ten groups reserving 0.1 each fill a link of capacity 0.9999999999999999
    ten = make_instance({"l1": 0.9999999999999999}, [(k, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0})
                                      for k in range(1, 11)])
    m = {(k, "l1"): 0.1 for k in range(1, 11)}
    x = {ki: 0.1 for ki in ten.agents}
    assert constraint_violation(ten, x, m) == 0.0
