"""Certify the acceptance batch and print what the best response costs.

    PYTHONPATH=src python tests/certify_corpus.py

The corpus is batch seeds 1-50 in both variants, drawn as the acceptance
batch draws them (``test_acceptance._sample_sharing_instance``). Each draw
is tuned, constructed and certified. The script prints, per agent:
utility and slope evaluations; kink-free pieces of g and clip points
(piece ends where a best first quote reaches 0, not at a kink); slope
reads per piece (each read gives one piece's model coefficients);
``best_message`` calls, split into evaluations of g and probes of the clip
state (any other call); and the binding-form reads (``scale_slopes``
calls, each computed: nothing caches them). It also prints the wall time
of ``certify_ne``, of ``curvature_check`` and of building every agent's
``DeviationEvaluator`` from one read of each candidate (the evaluator
set-up both of them do) on the tuned candidates, summed over the corpus
(the fastest of five passes), the auto-shrinks ``tune_params`` spent
over the corpus, and the coordinates locked on the right and on the left
side of the demand (those ``LocalModel.free`` leaves out and
``curvature_check`` drops) summed over the tuned candidates' agents.
Last, for the ladder draws ``random_instance(1, g, 3, g)`` with g = 12
and 25 (22 and 50 agents), tuned and constructed in both variants, it
prints the auto-shrinks, the right- and left-side locks, the
time of ``certify_ne`` (fastest of five) in total and in µs per agent, its
evaluations per agent, and the time of ``demand_kinks`` in µs per agent
(fastest of five).

Not collected by pytest (the name does not start with ``test_``); it is
the yardstick for changes to ``exact_best_response``.
"""

import time

from mcastmech import (MechanismParams, certify_ne, construct_ne, curvature_check,
                       default_epsilon, exact_best_response, random_instance, solve_cp,
                       tune_params)
from mcastmech.mechanism import KINK_TOL, DeviationEvaluator, _evaluators

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


def main():
    candidates, shrinks = [], 0
    for seed in range(1, N_BATCH + 1):
        _, inst, primal, dual = _sample_sharing_instance(seed)
        epsilon = default_epsilon(inst, primal)
        for variant in ("wbb", "sbb"):
            params, n, _ = tune_params(inst, primal, dual, MechanismParams(variant=variant))
            shrinks += n
            candidates.append((inst, construct_ne(inst, primal, dual, params), epsilon))

    certify_s, curvature_s, setup_s = [], [], []
    for _ in range(REPEATS):
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
            curvature_check(inst, cand)
            curvature_s[-1] += time.perf_counter() - start
            assert report.certified and not report.incomplete

    counts = dict.fromkeys(("utility", "demand_slope", "best_message", "scale_slopes"), 0)
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
          f"slope {counts['demand_slope'] / agents:.2f}, "
          f"pieces {pieces / agents:.2f}, clip points {clips / agents:.2f}, "
          f"slope reads per piece {counts['demand_slope'] / pieces:.2f}")
    print(f"per agent: best_message {counts['best_message'] / agents:.2f} "
          f"(g {g_evals / agents:.2f}, clip probes "
          f"{(counts['best_message'] - g_evals) / agents:.2f})")
    print(f"per agent: binding-form reads (scale_slopes, computed) "
          f"{counts['scale_slopes'] / agents:.2f}")
    print(f"certify_ne {min(certify_s):.3f} s, curvature_check {min(curvature_s):.3f} s, "
          f"evaluator set-up {min(setup_s):.3f} s (fastest of {REPEATS} passes)")
    right, left = map(sum, zip(*(locks(inst, cand) for inst, cand, _ in candidates)))
    print(f"{shrinks} auto-shrinks; locked coordinates: {right} right-side, {left} left-side")
    for g in LADDER:
        ladder_rung(g)


def ladder_rung(g):
    """Certify the tuned candidates of random_instance(1, g, 3, g) and print
    the cost per agent, and that of demand_kinks."""
    inst = random_instance(1, g, 3, g)
    primal, dual = solve_cp(inst)
    epsilon = default_epsilon(inst, primal)
    n = len(inst.agents)
    for variant in ("wbb", "sbb"):
        params, shrinks, _ = tune_params(inst, primal, dual, MechanismParams(variant=variant))
        cand = construct_ne(inst, primal, dual, params)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            report = certify_ne(inst, cand, epsilon, budget=CERT_BUDGET)
            times.append(time.perf_counter() - start)
        assert report.certified and not report.incomplete
        evaluators = list(_evaluators(inst, cand.profile, cand.params))
        kink_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for ev in evaluators:
                ev.demand_kinks()
            kink_times.append(time.perf_counter() - start)
        right, left = locks(inst, cand)
        print(f"ladder g={g} {variant}: {n} agents, {shrinks} auto-shrinks, "
              f"locks {right} right / {left} left, certify_ne "
              f"{min(times) * 1e3:.1f} ms ({min(times) / n * 1e6:.0f} us per agent), "
              f"{sum(report.evals.values()) / n:.2f} evaluations per agent, "
              f"demand_kinks {min(kink_times) / n * 1e6:.1f} us per agent")


if __name__ == "__main__":
    main()
