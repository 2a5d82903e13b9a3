"""Shared fixture instances with hand-checkable optima.

Every fixture instance is small enough that its optimum (and usually its
dual certificate) can be derived with pencil and paper; the derivations
are spelled out where the numbers are asserted.
"""

import numpy as np
import pytest

from mcastmech import (
    LOG_SAT,
    EXP_SAT,
    AgentId,
    Link,
    Message,
    NetworkInstance,
    Route,
    Valuation,
    solve_cp,
)

from evaluate_reference import neighbours


def make_instance(caps, agents):
    """Build a NetworkInstance from plain tuples.

    caps: {link_id: capacity}
    agents: iterable of (group, member, family, a, b, {link_id: alpha})
    """
    links = [Link(lid, float(c)) for lid, c in caps.items()]
    routes = []
    valuations = {}
    for group, member, family, a, b, weights in agents:
        ki = AgentId(group, member)
        routes.append(Route(ki, tuple(sorted(weights.items()))))
        valuations[ki] = Valuation(family, float(a), float(b))
    return NetworkInstance(links, routes, valuations)


def batch_shape(seed):
    """Instance shape for one acceptance batch seed: 2-4 groups of up to 3
    members on up to six links (so at most 12 agents), with varying route
    density."""
    rng = np.random.default_rng(seed)
    groups = int(rng.integers(2, 5))
    members = int(rng.integers(1, 4))
    links = int(rng.integers(1, 7))
    density = float(rng.uniform(0.5, 1.0))
    return groups, members, links, density


def coherent_quotes(inst, profile, rng):
    """Equilibrium-shaped quotes on top of a profile's demands: each link
    gets one price, split at random among each group's members, and every
    member's second quote equals its successor's first quote. Then each
    agent's price factor is its own first quote (up to rounding in w_bar)."""
    q1 = {}
    for lid in inst.link_ids:
        price = float(rng.uniform(0.0, 2.0))
        for k in inst.groups_on_link[lid]:
            members = inst.members_on_link[(k, lid)]
            split = rng.dirichlet(np.ones(len(members)))
            for i, share in zip(members, split):
                q1[(AgentId(k, i), lid)] = price * float(share)
    succ, _ = neighbours(inst)
    out = {}
    for ki in inst.agents:
        q = {lid: (q1[(ki, lid)], q1[(succ[(ki, lid)], lid)])
             for lid in inst.links_of[ki]}
        out[ki] = Message(profile[ki].y, q, profile[ki].rho)
    return out


@pytest.fixture(scope="session")
def symmetric_instance():
    """One link c=10, two singleton groups, identical log valuations.

    Optimum splits the link evenly: x = (5, 5), lambda = v'(5) = 1/6.
    """
    return make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def oracle_instance():
    """One link c=6; group 1 has two members (a=1 and a=2), group 2 one.

    Both group-1 members ride the group maximum, so the planner sees
    3*log(1+m1) + log(1+m2) with m1+m2=6; the first-order condition
    3/(1+m1) = 1/(1+m2) gives m1=5, m2=1.
    """
    return make_instance(
        {"l1": 6.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (1, 2, LOG_SAT, 2.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def slack_instance():
    """Two links, shared route, second link far from binding.

    c = (4, 100): x = (2, 2) with lambda = (1/3, 0). The slack link keeps
    every dual at zero there, which the complementary-slackness deviation
    test leans on.
    """
    return make_instance(
        {"l1": 4.0, "l2": 100.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def two_member_instance():
    """One link c=10; group 1 = {1.1, 1.2}, group 2 singleton.

    Group members share the group rate, so welfare is
    2*log(1+m1) + log(1+m2): m1=7, m2=3, lambda=1/4, mu = (1/8, 1/8, 1/4).
    """
    return make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (1, 2, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def chain_instance():
    """Two links in a chain: l1 carries groups 1,2 and l2 carries 2,3."""
    return make_instance(
        {"l1": 10.0, "l2": 8.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (3, 1, LOG_SAT, 1.0, 1.0, {"l2": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def three_group_instance():
    """One link, three singleton groups (rival means over two groups)."""
    return make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (3, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def a4_fail_instance():
    """Optimum starves group 2 entirely (marginal value 0.05 < price).

    Group 1 alone fills the link: x = (10, 0), so the active-group count
    at the optimum is 1 and downstream construction must refuse.
    """
    return make_instance(
        {"l1": 10.0},
        [
            (1, 1, LOG_SAT, 5.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 0.5, 0.1, {"l1": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def saturated_instance():
    """A numerically saturated agent riding a slack link.

    Groups 1 and 2 fill l1 as in the symmetric instance; group 3 sits alone
    with group 2 on the roomy l2, where its exponential valuation flattens
    out (v' ~ 1e-10) before capacity matters.  Its equilibrium prices are
    ~1e-10 and its utility is flat in its own demand at machine precision.
    Regression guard for the curvature check's rounding bound.
    """
    return make_instance(
        {"l1": 10.0, "l2": 100.0},
        [
            (1, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0}),
            (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 1.0, "l2": 1.0}),
            (3, 1, EXP_SAT, 1.0, 5.0, {"l2": 1.0}),
        ],
    )


@pytest.fixture(scope="session")
def solved_symmetric(symmetric_instance):
    return solve_cp(symmetric_instance, tol=1e-10)


@pytest.fixture(scope="session")
def solved_oracle(oracle_instance):
    return solve_cp(oracle_instance, tol=1e-10)


@pytest.fixture(scope="session")
def solved_slack(slack_instance):
    return solve_cp(slack_instance, tol=1e-10)


@pytest.fixture(scope="session")
def solved_two_member(two_member_instance):
    return solve_cp(two_member_instance, tol=1e-10)
