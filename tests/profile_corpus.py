"""Evaluate a fixed ladder of random profiles and print evaluate's numbers.

    PYTHONPATH=src python tests/profile_corpus.py [REPEATS]

The ladder has the benchmark's ``profile_eval`` shape, rebuilt here: seven
instances of (agents, groups, links) = (6, 3, 2), (8, 4, 3), (12, 6, 4),
(16, 8, 5), (20, 10, 7), (24, 12, 8) and (30, 15, 10). Rung j draws
``random_instance(seed, n_groups, max_group_size=3, n_links, density=0.8)``
from seed 200 * (j + 1) upward until the generator accepts a draw with
that many agents. Each rung gets 256 random profiles (numpy seed 11, drawn
rung by rung): demands U[0, 2 * largest capacity] with about a tenth set
to 0, quotes U[0, 2] and rhos U[0, 2]. Each profile is evaluated under
both variants (WBB drops the rhos), so a rung makes 512 ``evaluate``
calls.

Per rung it prints the agent count, the pair count and the microseconds
per ``evaluate`` call: the least over REPEATS (default 5) timed sweeps
over the rung's 512 calls. Last it prints two SHA-256 digests, each in
rung, profile and variant order: one over every ``repr(outcome)`` and one
over every ``outcome_to_json`` text, the bytes of ``outcome.json`` (a
profile that raises adds its ``MessageShapeError`` message to both). Two
source trees can be compared by running this script on each.

Not collected by pytest (the name does not start with ``test_``); it is
the shared yardstick for changes to ``evaluate`` and ``validate_profile``,
as ``solve_corpus.py`` is for the solver.
"""

import hashlib
import sys
import time

import numpy as np

from mcastmech import MechanismParams, Message, evaluate, outcome_to_json, random_instance
from mcastmech.errors import MessageShapeError, ValidationFailure

LADDER = ((6, 3, 2), (8, 4, 3), (12, 6, 4), (16, 8, 5), (20, 10, 7), (24, 12, 8), (30, 15, 10))
PROFILES = 256
PARAMS = (MechanismParams(variant="wbb"), MechanismParams(variant="sbb"))


def ladder():
    """Per rung, the instance and its (params, profile) evaluations."""
    rng = np.random.default_rng(11)
    rungs = []
    for rung, (agents, groups, links) in enumerate(LADDER):
        seed = 200 * (rung + 1)
        while True:
            try:
                inst = random_instance(seed, n_groups=groups, max_group_size=3,
                                       n_links=links, density=0.8)
            except ValidationFailure:
                inst = None
            if inst is not None and len(inst.agents) == agents:
                break
            seed += 1
        cap = max(inst.capacity.values())
        n_q = sum(len(inst.links_of[ki]) for ki in inst.agents)
        y = rng.uniform(0.0, 2.0 * cap, size=(PROFILES, agents))
        y[rng.random((PROFILES, agents)) < 0.1] = 0.0
        q = rng.uniform(0.0, 2.0, size=(PROFILES, n_q, 2))
        rho = rng.uniform(0.0, 2.0, size=(PROFILES, agents))
        calls = []
        for p in range(PROFILES):
            quotes = iter(q[p].tolist())
            profiles = ({}, {})
            for a, ki in enumerate(inst.agents):
                msg_q = {lid: tuple(next(quotes)) for lid in inst.links_of[ki]}
                profiles[0][ki] = Message(float(y[p, a]), msg_q, None)
                profiles[1][ki] = Message(float(y[p, a]), msg_q, float(rho[p, a]))
            calls += zip(PARAMS, profiles)
        rungs.append((inst, n_q, calls))
    return rungs


def outcome_texts(inst, profile, params):
    """(repr(outcome), outcome_to_json text), or the error message twice."""
    try:
        out = evaluate(inst, profile, params)
    except MessageShapeError as exc:
        return (f"MessageShapeError: {exc}",) * 2
    return repr(out), outcome_to_json(inst, out)


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    digest, json_digest = hashlib.sha256(), hashlib.sha256()
    for inst, n_q, calls in ladder():
        for params, profile in calls:
            text, json_text = outcome_texts(inst, profile, params)
            digest.update(text.encode())
            json_digest.update(json_text.encode())
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for params, profile in calls:
                evaluate(inst, profile, params)
            best = min(best, time.perf_counter() - start)
        print(f"agents={len(inst.agents):3d} pairs={n_q:3d} "
              f"evaluate_us={1e6 * best / len(calls):8.1f}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"outcome_to_json sha256 {json_digest.hexdigest()}")


if __name__ == "__main__":
    main()
