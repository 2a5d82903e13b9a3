"""Certify the acceptance batch and print what the best response costs.

    PYTHONPATH=src python tests/certify_corpus.py

The corpus is batch seeds 1-50 in both variants, drawn as the acceptance
batch draws them (``test_acceptance._sample_sharing_instance``). Each draw
is constructed at the default params and certified. The script prints, per agent:
utility calls and rate-model reads (``rate_model``, one per kink piece:
each read gives the model coefficients of every piece between two kinks);
kink-free pieces of g and clip points (piece ends where a best first quote
reaches 0, not at a kink); rate-model reads per piece; ``best_message``
calls, split into evaluations of g and probes of the clip state (any other
call); and the piece-form reads (``_rate_form`` calls, from ``rate_model``
and from ``jumps_at_zero``, each computed: nothing caches them). It also prints the wall time
of ``certify_ne``, of ``curvature_check`` and of building every agent's
``DeviationEvaluator`` from one read of each candidate (the evaluator
set-up both of them do) on the candidates, summed over the corpus
(the fastest of five passes), the agents that fail the curvature gate
(``curvature_check``) over the corpus, expected none, and the
coordinates locked on the right and on the left side of the demand
(those ``LocalModel.free`` leaves out and ``curvature_check`` drops)
summed over the candidates' agents. Last, for the ladder draws
``random_instance(1, g, 3, g)`` with g = 12 and 25 (22 and 50 agents),
constructed in both variants, it prints the agents failing the gate,
the right- and left-side locks, the
time of ``certify_ne`` (fastest of five) in total and in µs per agent, its
evaluations per agent, and the time of ``demand_kinks`` in µs per agent
(fastest of five). It prints how many agents at a positive demand take
``curvature_check``'s right-model shortcut (their left model is not read
but derived from the right one: ``DeviationEvaluator.local_models``).
Last it prints one SHA-256 over every certification report, in corpus
order (the batch candidates, then the ladder's): per agent, its gain by
``float.hex``, its evaluations and ``message_to_dict`` of its deviation;
and one over every curvature report, in the same order: per agent,
``passed``, ``max_eig`` by ``float.hex``, ``kinked``, the sorted
``locked``, ``n_coords`` and the sorted ``price_diag`` (values by
``float.hex``). So two source trees can be compared by running this
script on each.

Not collected by pytest (the name does not start with ``test_``); it is
the yardstick for changes to ``exact_best_response``.
"""

import hashlib
import json
import time

from mcastmech import (MechanismParams, certify_ne, construct_ne, curvature_check,
                       default_epsilon, exact_best_response, random_instance, solve_cp)
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator, _evaluators, message_to_dict

from test_acceptance import CERT_BUDGET, N_BATCH, _sample_sharing_instance

REPEATS = 5  # timing passes over the corpus; the fastest is printed
LADDER = (12, 25)  # random_instance(1, g, 3, g): 22 and 50 agents


def counted(name, counts):
    """Wrap DeviationEvaluator.<name> so each call adds 1 to counts[name]."""
    real = getattr(DeviationEvaluator, name)

    def wrapper(self, *args):
        counts[name] += 1
        return real(self, *args)

    setattr(DeviationEvaluator, name, wrapper)
    return real


def locks(inst, cand):
    """The coordinates LocalModel.free leaves out, summed over the agents
    of cand: (right side, left side; the left exists only at y > 0)."""
    right = left = 0
    for ev in _evaluators(inst, cand.profile, cand.params):
        msg = cand.profile[ev.ki]
        right += int((~ev.local_model(msg, +1).free).sum())
        if msg.y > 0.0:
            left += int((~ev.local_model(msg, -1).free).sum())
    return right, left


def report_text(report) -> str:
    """A certification report as digest text: per agent, its gain by
    float.hex, its evaluations and message_to_dict of its deviation."""
    return "".join(f"{ki.label} {gain.hex()} {report.evals[ki]} "
                   f"{json.dumps(message_to_dict(report.deviations[ki]))}\n"
                   for ki, gain in report.gains.items())


def curvature_text(report) -> str:
    """A curvature report as digest text: per agent, passed, max_eig by
    float.hex, kinked, the sorted locked, n_coords and the sorted
    price_diag with its values by float.hex."""
    return "".join(f"{ki.label} {a.passed} {a.max_eig.hex()} {a.kinked} {sorted(a.locked)} "
                   f"{a.n_coords} {sorted((k, v.hex()) for k, v in a.price_diag.items())}\n"
                   for ki, a in report.agents.items())


def shortcuts(candidates):
    """(agents at y > 0, of them those whose left model one curvature_check
    pass over candidates does not read: local_model calls at side -1)."""
    real, left_reads = DeviationEvaluator.local_model, [0]

    def wrapper(self, msg, side):
        left_reads[0] += side < 0
        return real(self, msg, side)

    DeviationEvaluator.local_model = wrapper
    try:
        for inst, cand, _ in candidates:
            curvature_check(inst, cand)
    finally:
        DeviationEvaluator.local_model = real
    positive = sum(msg.y > 0.0 for _, cand, _ in candidates for msg in cand.profile.values())
    return positive, positive - left_reads[0]


def gate_failures(inst, cand):
    """The labels of the agents of cand that curvature_check fails."""
    return [ki.label for ki, a in sorted(curvature_check(inst, cand).agents.items())
            if not a.passed]


def main():
    candidates, failing = [], []
    for seed in range(1, N_BATCH + 1):
        _, inst, primal, dual = _sample_sharing_instance(seed)
        epsilon = default_epsilon(inst, primal)
        for variant in ("wbb", "sbb"):
            cand = construct_ne(inst, primal, dual, MechanismParams(variant=variant))
            failing += [f"{seed}/{variant}/{label}" for label in gate_failures(inst, cand)]
            candidates.append((inst, cand, epsilon))

    certify_s, curvature_s, setup_s = [], [], []
    digest, curvature_digest = hashlib.sha256(), hashlib.sha256()
    for repeat in range(REPEATS):
        certify_s.append(0.0)
        curvature_s.append(0.0)
        setup_s.append(0.0)
        for inst, cand, epsilon in candidates:
            start = time.perf_counter()
            for _ in _evaluators(inst, cand.profile, cand.params):
                pass
            setup_s[-1] += time.perf_counter() - start
            start = time.perf_counter()
            report = certify_ne(inst, cand, epsilon, budget=CERT_BUDGET)
            certify_s[-1] += time.perf_counter() - start
            start = time.perf_counter()
            curvature = curvature_check(inst, cand)
            curvature_s[-1] += time.perf_counter() - start
            assert report.certified and not report.incomplete
            if not repeat:
                digest.update(report_text(report).encode())
                curvature_digest.update(curvature_text(curvature).encode())

    counts = dict.fromkeys(("utility", "rate_model", "best_message", "_rate_form"), 0)
    reals = {name: counted(name, counts) for name in counts}
    agents = pieces = clips = 0
    try:
        for inst, cand, _ in candidates:
            for ki in inst.agents:
                res = exact_best_response(inst, cand.profile, ki, cand.params, CERT_BUDGET)
                kinks = DeviationEvaluator(inst, cand.profile, cand.params, ki).demand_kinks()[0]
                agents += 1
                pieces += len(res.pieces)
                clips += sum(all(abs(a - k) > KINK_TOL * a for k in kinks)
                             for a, _, _, _ in res.pieces[1:])
    finally:
        for name, real in reals.items():
            setattr(DeviationEvaluator, name, real)
    g_evals = counts["utility"] - agents  # one utility call per agent prices the incumbent
    print(f"{len(candidates)} candidates, {agents} agents")
    print(f"per agent: utility {counts['utility'] / agents:.2f}, "
          f"rate model {counts['rate_model'] / agents:.2f}, "
          f"pieces {pieces / agents:.2f}, clip points {clips / agents:.2f}, "
          f"rate-model reads per piece {counts['rate_model'] / pieces:.2f}")
    print(f"per agent: best_message {counts['best_message'] / agents:.2f} "
          f"(g {g_evals / agents:.2f}, clip probes "
          f"{(counts['best_message'] - g_evals) / agents:.2f})")
    print(f"per agent: piece-form reads (_rate_form, computed) "
          f"{counts['_rate_form'] / agents:.2f}")
    print(f"certify_ne {min(certify_s):.3f} s, curvature_check {min(curvature_s):.3f} s, "
          f"evaluator set-up {min(setup_s):.3f} s (fastest of {REPEATS} passes)")
    right, left = map(sum, zip(*(locks(inst, cand) for inst, cand, _ in candidates)))
    print(f"curvature gate fails: {', '.join(failing) or 'none'}; "
          f"locked coordinates: {right} right-side, {left} left-side")
    positive, shortcut = shortcuts(candidates)
    print(f"curvature_check right-model shortcut: {shortcut} of {positive} agents at y > 0")
    for g in LADDER:
        ladder_rung(g, digest, curvature_digest)
    print(f"certification sha256 over {len(candidates) + 2 * len(LADDER)} reports: "
          f"{digest.hexdigest()}")
    print(f"curvature sha256 over {len(candidates) + 2 * len(LADDER)} reports: "
          f"{curvature_digest.hexdigest()}")


def ladder_rung(g, digest, curvature_digest):
    """Certify the candidates of random_instance(1, g, 3, g), print the
    cost per agent and that of demand_kinks, and add the certification
    reports to digest and the curvature reports to curvature_digest."""
    inst = random_instance(1, g, 3, g)
    primal, dual = solve_cp(inst)
    epsilon = default_epsilon(inst, primal)
    n = len(inst.agents)
    for variant in ("wbb", "sbb"):
        cand = construct_ne(inst, primal, dual, MechanismParams(variant=variant))
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            report = certify_ne(inst, cand, epsilon, budget=CERT_BUDGET)
            times.append(time.perf_counter() - start)
        assert report.certified and not report.incomplete
        digest.update(report_text(report).encode())
        curvature_digest.update(curvature_text(curvature_check(inst, cand)).encode())
        evaluators = list(_evaluators(inst, cand.profile, cand.params))
        kink_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for ev in evaluators:
                ev.demand_kinks()
            kink_times.append(time.perf_counter() - start)
        right, left = locks(inst, cand)
        print(f"ladder g={g} {variant}: {n} agents, "
              f"gate fails {', '.join(gate_failures(inst, cand)) or 'none'}, "
              f"locks {right} right / {left} left, certify_ne "
              f"{min(times) * 1e3:.1f} ms ({min(times) / n * 1e6:.0f} us per agent), "
              f"{sum(report.evals.values()) / n:.2f} evaluations per agent, "
              f"demand_kinks {min(kink_times) / n * 1e6:.1f} us per agent")


if __name__ == "__main__":
    main()
