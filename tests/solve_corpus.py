"""Solve the fixed 766-draw corpus and print the solver's numbers.

    PYTHONPATH=src python tests/solve_corpus.py [HASHES]

The corpus is every acceptance-shaped draw of batch seeds 1-150 at
attempts 0-3 (instance seed = batch seed * 1009 + attempt) plus the
benchmark's ``solve_large`` chains 101-136 (8 or 12 groups and links;
chains 101-112 at attempts 0-5, the rest at attempts 0-3). Draws the
generator rejects are skipped. Each draw is solved at the default tol;
the script prints the solved and failed counts, the worst final residual,
the total solve time (also per family: acceptance-shaped draws and
chains), a histogram of interior-point steps per solve, and the mean cost
of one interior-point step (``_mehrotra_step``) and of one iterate
measurement (``_finish`` plus ``_residual``) in microseconds. The timers
wrap those functions, so they add a few microseconds per call; compare
the figures between runs of this script, not with a profiler's. Per solve
it prints the mean number of full measurements (``_residual`` calls) and
of bound-only checks: iterates a cheap residual block showed above the
floor and that were never measured (``_measure`` calls with the floor as
ceiling that return before ``_residual``). It counts how each solve ended (``ending``): at the
residual floor, on patience, after ``MAX_ITERS`` steps, or otherwise (a
step raised or left a non-finite iterate).

Last it prints one SHA-256 over every draw's ``solution_to_json`` text
(or its ``SolverError`` message), so two source trees can be compared by
running this script on each; with a HASHES path it also writes one
``label digest`` line per draw there.

Not collected by pytest (the name does not start with ``test_``); it is
the shared yardstick for changes to ``solve_cp``.
"""

import collections
import hashlib
import math
import sys
import time

import numpy as np

from mcastmech import random_instance, solution_to_json, solve_cp
from mcastmech import centralized
from mcastmech.errors import SolverError, ValidationFailure

from conftest import batch_shape


def corpus():
    """(label, instance) for every draw the generator accepts."""
    draws = []
    for seed in range(1, 151):
        groups, members, links, density = batch_shape(seed)
        for attempt in range(4):
            draws.append((f"acceptance-{seed * 1009 + attempt}", seed * 1009 + attempt,
                          dict(n_groups=groups, max_group_size=members,
                               n_links=links, density=density)))
    for chain in range(101, 137):
        size = 8 if chain % 2 else 12
        for attempt in range(6 if chain <= 112 else 4):
            draws.append((f"chain-{chain * 1009 + attempt}", chain * 1009 + attempt,
                          dict(n_groups=size, max_group_size=3, n_links=size)))
    out = []
    for label, seed, shape in draws:
        try:
            out.append((label, random_instance(seed, **shape)))
        except ValidationFailure:
            continue
    return out


def timed(name, spent, calls):
    """Wrap centralized.<name> so that each call adds its wall time to
    spent[name] and one to calls[name]."""
    real = getattr(centralized, name)

    def wrapper(*args):
        start = time.perf_counter()
        try:
            return real(*args)
        finally:
            spent[name] += time.perf_counter() - start
            calls[name] += 1

    setattr(centralized, name, wrapper)


def counted_bounds(calls):
    """Count in calls["bounded"] the iterates a bound shows above the floor,
    by wrapping centralized._measure: a call with a ceiling (the loop's;
    an exit passes none) that returns None before any _residual call. Needs
    _residual wrapped by timed first."""
    measure = centralized._measure

    def wrapper(*args):
        before = calls["_residual"]
        out = measure(*args)
        calls["bounded"] += len(args) > 4 and out is None and calls["_residual"] == before
        return out

    centralized._measure = wrapper


def watched_steps(failed):
    """Wrap centralized._mehrotra_step so that failed[0] says whether the
    latest step raised or left a non-finite iterate."""
    real = centralized._mehrotra_step

    def wrapper(*args):
        failed[0] = True
        out = real(*args)
        failed[0] = not all(np.isfinite(v).all() for v in out)
        return out

    centralized._mehrotra_step = wrapper


def ending(residual, steps, failed_step):
    """How a solve's loop ended, read from outside it. Only the floor exit
    returns an iterate at or below RESIDUAL_FLOOR; a loop that ends
    otherwise ends after a failed step, after MAX_ITERS steps, or on
    patience (before its next step). A failed solve passes residual inf."""
    if residual <= centralized.RESIDUAL_FLOOR:
        return "floor"
    if failed_step:
        return "other"
    return "max-iters" if steps == centralized.MAX_ITERS else "patience"


def main():
    spent, calls = collections.Counter(), collections.Counter()
    failed_step = [False]
    watched_steps(failed_step)
    for name in ("_mehrotra_step", "_finish", "_residual"):
        timed(name, spent, calls)
    counted_bounds(calls)
    solved, failed, worst = 0, [], (0.0, None)
    times, endings = collections.Counter(), collections.Counter()
    step_counts, digests, bound_only = [], [], 0
    for label, inst in corpus():
        before, bounded = calls["_mehrotra_step"], calls["bounded"]
        failed_step[0] = False
        start = time.perf_counter()
        try:
            primal, dual = solve_cp(inst)
        except SolverError as exc:
            failed.append(f"{label}: {exc}")
            digests.append((label, hashlib.sha256(str(exc).encode()).hexdigest()))
            residual = math.inf
        else:
            solved += 1
            step_counts.append(calls["_mehrotra_step"] - before)
            residual = dual.residuals.max_residual
            worst = max(worst, (residual, label))
            text = solution_to_json(inst, primal, dual)
            digests.append((label, hashlib.sha256(text.encode()).hexdigest()))
        finally:
            times[label.split("-")[0]] += time.perf_counter() - start
        end = ending(residual, calls["_mehrotra_step"] - before, failed_step[0])
        endings[end] += 1
        if end == "floor":  # a floor exit measures none of its bounded iterates
            bound_only += calls["bounded"] - bounded
    print(f"solved {solved}, failed {len(failed)}")
    for line in failed:
        print(f"  {line}")
    print(f"worst residual {worst[0]:.2e} ({worst[1]})")
    print(f"total solve time {sum(times.values()):.2f} s ("
          + ", ".join(f"{family} {t:.2f} s" for family, t in sorted(times.items())) + ")")
    histogram = collections.Counter(n // 5 * 5 for n in step_counts)
    print(f"steps per solve (mean {sum(step_counts) / max(1, solved):.2f}):",
          ", ".join(f"{lo}-{lo + 4}: {n}" for lo, n in sorted(histogram.items())))
    measure = sum(spent[name] / max(1, calls[name]) for name in ("_finish", "_residual"))
    print(f"per step {1e6 * spent['_mehrotra_step'] / max(1, calls['_mehrotra_step']):.0f} us, "
          f"per iterate measurement (_finish + _residual) {1e6 * measure:.0f} us")
    n = max(1, solved + len(failed))
    print(f"per solve: {calls['_residual'] / n:.2f} full measurements "
          f"({calls['_residual']} in all), {bound_only / n:.2f} bound-only checks "
          f"({bound_only} in all)")
    print("solves ended: " + ", ".join(f"{end} {endings[end]}"
                                       for end in ("floor", "patience", "max-iters", "other")))
    lines = "".join(f"{label} {digest}\n" for label, digest in digests)
    print(f"solution.json sha256 over {len(digests)} draws: "
          f"{hashlib.sha256(lines.encode()).hexdigest()}")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as out:
            out.write(lines)


if __name__ == "__main__":
    main()
