"""Solve the fixed 766-draw corpus and print the solver's numbers.

    PYTHONPATH=src python tests/solve_corpus.py [HASHES]

The corpus is every acceptance-shaped draw of batch seeds 1-150 at
attempts 0-3 (instance seed = batch seed * 1009 + attempt) plus the
benchmark's ``solve_large`` chains 101-136 (8 or 12 groups and links;
chains 101-112 at attempts 0-5, the rest at attempts 0-3). Draws the
generator rejects are skipped. Each draw is solved at the default tol;
the script prints the solved and failed counts, the worst final residual,
the total solve time (also per family: acceptance-shaped draws and
chains; it includes each solved draw's ``solution_to_json`` and its
hash, whose share it prints too), a histogram of interior-point steps per solve, and the mean cost
of one interior-point step (``_step_terms`` plus ``_mehrotra_step``), of
one step bound (``_bound``) and of one iterate measurement (``_finish``
plus ``_residual``) in microseconds. It also prints the mean time per
``solve_cp`` call spent outside steps, bounds and measurements (its time less
``_step_terms``, ``_mehrotra_step``, ``_bound``, ``_finished`` and
``_measure``), and of it ``require_valid``, ``_Workspace``, ``check_a4``
and the rest (the interior start, the loop's bookkeeping and the result
dicts). The timers wrap those functions, so they add a few microseconds
per call, some of it to the time outside; compare the figures between
runs of this script, not with a profiler's. Per solve it prints the mean number of
iterates the step bound decided (``_bound`` calls less ``_finish`` calls,
since the loop bounds each iterate once and finishes it at most once:
iterates whose step residuals showed them above the floor and that were
never finished), of finishes (``_finish`` calls), of full measurements
(``_residual`` calls) and of bound-only finishes (finishes less full
measurements: iterates finished only for their complementarity block to
show them above the floor). It counts how each solve ended (``ending``): at the
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
    for name in ("_mehrotra_step", "_step_terms", "_bound", "_finish", "_residual",
                 "_finished", "_measure", "require_valid", "_Workspace", "check_a4"):
        timed(name, spent, calls)
    solved, failed, worst = 0, [], (0.0, None)
    times, endings = collections.Counter(), collections.Counter()
    step_counts, digests, exported = [], [], 0.0
    for label, inst in corpus():
        before = calls["_mehrotra_step"]
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
            start_export = time.perf_counter()
            text = solution_to_json(inst, primal, dual)
            digests.append((label, hashlib.sha256(text.encode()).hexdigest()))
            exported += time.perf_counter() - start_export
        finally:
            times[label.split("-")[0]] += time.perf_counter() - start
        end = ending(residual, calls["_mehrotra_step"] - before, failed_step[0])
        endings[end] += 1
    print(f"solved {solved}, failed {len(failed)}")
    for line in failed:
        print(f"  {line}")
    print(f"worst residual {worst[0]:.2e} ({worst[1]})")
    print(f"total solve time {sum(times.values()):.2f} s ("
          + ", ".join(f"{family} {t:.2f} s" for family, t in sorted(times.items()))
          + f"), of it solution_to_json and its hash {exported:.2f} s")
    histogram = collections.Counter(n // 5 * 5 for n in step_counts)
    print(f"steps per solve (mean {sum(step_counts) / max(1, solved):.2f}):",
          ", ".join(f"{lo}-{lo + 4}: {n}" for lo, n in sorted(histogram.items())))
    def mean_us(*names):
        return 1e6 * sum(spent[name] / max(1, calls[name]) for name in names)
    print(f"per step (_step_terms + _mehrotra_step) "
          f"{mean_us('_step_terms', '_mehrotra_step'):.0f} us, per step bound "
          f"{mean_us('_bound'):.0f} us, per iterate measurement (_finish + _residual) "
          f"{mean_us('_finish', '_residual'):.0f} us")
    n = max(1, solved + len(failed))
    decided = calls["_bound"] - calls["_finish"]
    bound_only = calls["_finish"] - calls["_residual"]
    print(f"per solve: {decided / n:.2f} iterates decided by the step bound ({decided} in all), "
          f"{calls['_finish'] / n:.2f} finishes ({calls['_finish']}), "
          f"{calls['_residual'] / n:.2f} full measurements ({calls['_residual']}), "
          f"{bound_only / n:.2f} bound-only finishes ({bound_only})")
    def per_solve_us(*names):
        return 1e6 * sum(spent[name] for name in names) / n
    solve_us = 1e6 * (sum(times.values()) - exported) / n
    outside = solve_us - per_solve_us(
        "_step_terms", "_mehrotra_step", "_bound", "_finished", "_measure")
    setup = ("require_valid", "_Workspace", "check_a4")
    print(f"per solve_cp call, outside steps, bounds and measurements {outside:.0f} of "
          f"{solve_us:.0f} us: "
          + ", ".join(f"{name} {per_solve_us(name):.0f}" for name in setup)
          + f", the rest {outside - per_solve_us(*setup):.0f}")
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
