"""Command-line front end: solve, certify, dynamics.

Every command reads an instance file (or, for seed sweeps, generates
instances), runs the library pipeline, and writes reports into the output
directory. Reports are deterministic for a fixed invocation: no
timestamps, sorted keys, and sweep rows ordered by seed, so re-running a
command yields byte-identical files.

Exit codes (fixed for scripting):
  0  success (for certify: certified and every lemma entry at threshold)
  2  unreadable input (bad JSON, malformed documents, bad CLI values)
  3  instance or profile fails validation
  4  the optimum violates the two-active-groups-per-link sharing condition
  5  numeric failure (solver stall, construction drift, failed
     certification, candidate curvature indefinite)

Failures print one machine-readable JSON object on stdout, e.g.
{"error": {"code": 3, "kind": "validation", "message": "..."}}.

Seed sweeps parallelize across instances with a process pool; the MECH_THREADS
environment variable caps the worker count (1 disables the pool).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .centralized import DEFAULT_TOL, DualCertificate, PrimalSolution, solution_to_json, solve_cp
from .equilibrium import (_curvature_gate, br_dynamics, certify_ne, construct_ne,
                          default_epsilon, lemma_suite)
from .errors import (DegenerateInstanceError, EquilibriumError,
                     InstanceFormatError, MechError, MessageShapeError,
                     SharingAssumptionError, SolverError, ValidationFailure)
from .mechanism import (MechanismParams, VARIANTS, evaluate, outcome_to_json,
                        profile_from_json, profile_to_json, zero_message)
from .model import (NetworkInstance, canonical_json, load_instance, random_instance,
                    require_valid, welfare)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_SHARING = 4
EXIT_NUMERIC = 5

DEFAULT_LEMMA_TOL = 1e-8


def _error_code(exc: Exception) -> Tuple[int, str]:
    if isinstance(exc, InstanceFormatError):
        return EXIT_INPUT, "input"
    if isinstance(exc, (ValidationFailure, MessageShapeError)):
        return EXIT_VALIDATION, "validation"
    if isinstance(exc, SharingAssumptionError):
        return EXIT_SHARING, "sharing"
    if isinstance(exc, (SolverError, EquilibriumError, DegenerateInstanceError)):
        return EXIT_NUMERIC, "numeric"
    raise exc


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"code": code, "kind": kind, "message": message}},
                     sort_keys=True))
    return code


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(args: argparse.Namespace, command: str) -> None:
    """manifest.json in args.out: the command, the versions and, as config,
    every parsed option with its parsed value."""
    doc = {
        "command": command,
        "package": "mcastmech",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
    }
    _write(os.path.join(args.out, "manifest.json"), canonical_json(doc))


def _mech_workers(n_jobs: int) -> int:
    raw = os.environ.get("MECH_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        cap = 1
    return max(1, min(n_jobs, cap))


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    primal, dual = solve_cp(instance, tol=args.tol, init_seed=args.seed)  # validates first
    report = dual.residuals
    if args.require_a4 and not report.a4_holds:
        raise SharingAssumptionError(
            "optimum has a link with fewer than two demanding groups: "
            + ", ".join(sorted(l for l, c in report.s_sizes.items() if c < 2)))
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "solution.json"), solution_to_json(instance, primal, dual))
    _write(os.path.join(args.out, "kkt_report.json"), canonical_json(report.as_dict()))
    _write_manifest(args, "solve")
    print(f"solve ok: welfare={welfare(instance, primal.x):.12g} "
          f"max_residual={report.max_residual:.3e} a4={report.a4_holds}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify

def _params_from(args: argparse.Namespace) -> MechanismParams:
    return MechanismParams(eta=args.eta, xi=args.xi, zeta=args.zeta,
                           variant=args.variant)


def _certify(instance: NetworkInstance, primal: PrimalSolution, dual: DualCertificate,
             args: argparse.Namespace) -> tuple:
    """Construct, curvature gate (as tune_params checks it), certify (at
    --epsilon or the default), lemmas and evaluate on a solved instance:
    (curvature report, candidate, epsilon, certification report, lemmas,
    outcome)."""
    params = _params_from(args)
    candidate = construct_ne(instance, primal, dual, params)
    curvature = _curvature_gate(instance, candidate)
    epsilon = args.epsilon if args.epsilon is not None else \
        default_epsilon(instance, primal)
    report = certify_ne(instance, candidate, epsilon, budget=args.budget)
    return (curvature, candidate, epsilon, report,
            lemma_suite(instance, candidate), evaluate(instance, candidate.profile, params))


def _certify_single(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    primal, dual = solve_cp(instance, tol=args.tol)  # validates first
    curv, candidate, epsilon, report, lemmas, outcome = _certify(instance, primal, dual, args)
    params = candidate.params

    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "equilibrium_profile.json"),
           profile_to_json(candidate.profile))
    _write(os.path.join(args.out, "outcome.json"), outcome_to_json(instance, outcome))
    _write(os.path.join(args.out, "certification.json"), canonical_json(report.as_dict()))
    lemma_doc = lemmas.as_dict()
    _write(os.path.join(args.out, "lemmas.json"), canonical_json(lemma_doc))
    curv_doc = {"agents": curv.as_dict(), "all_pass": curv.all_pass,
                "params": {"eta": params.eta, "xi": params.xi,
                           "zeta": params.zeta, "variant": params.variant}}
    _write(os.path.join(args.out, "curvature.json"), canonical_json(curv_doc))
    _write_manifest(args, "certify")
    worst_lemma = max(lemma_doc.values())
    print(f"certify: certified={report.certified} max_gain={report.max_gain:.6e} "
          f"epsilon={epsilon:.6e} worst_lemma={worst_lemma:.3e}")
    if not report.certified or worst_lemma > args.lemma_tol:
        return _fail(EXIT_NUMERIC, "certification",
                     f"max deviation gain {report.max_gain:.6e} vs epsilon "
                     f"{epsilon:.6e}; worst lemma violation {worst_lemma:.3e}")
    return EXIT_OK


_SWEEP_TRIES = 25


def _sweep_one(job: Tuple[int, argparse.Namespace]) -> Dict[str, object]:
    """Worker for one sweep seed: sample an instance until the sharing
    condition holds at the optimum, then construct and certify."""
    seed, args = job
    row: Dict[str, object] = {"seed": seed, "status": "ok"}
    instance = primal = dual = None
    for attempt in range(_SWEEP_TRIES):
        instance_seed = seed * 1009 + attempt
        try:
            cand_inst = random_instance(instance_seed, n_groups=args.sweep_groups,
                                        max_group_size=args.sweep_members,
                                        n_links=args.sweep_links, density=args.sweep_density)
            cand_primal, cand_dual = solve_cp(cand_inst, tol=args.tol)
        except (ValidationFailure, SolverError):
            continue
        if cand_dual.residuals.a4_holds:
            instance, primal, dual = cand_inst, cand_primal, cand_dual
            row["instance_seed"] = instance_seed
            row["resample_tries"] = attempt
            break
    if instance is None:
        row["status"] = "skipped"
        return row
    try:
        _, _, epsilon, report, lemmas, outcome = _certify(instance, primal, dual, args)
    except MechError as exc:
        row["status"] = f"error:{type(exc).__name__}"
        return row
    row.update({
        "agents": len(instance.agents),
        "links": len(instance.link_ids),
        "welfare": welfare(instance, primal.x),
        "epsilon": epsilon,
        "max_gain": report.max_gain,
        "certified": report.certified,
        "incomplete": len(report.incomplete),
        "allocation_drift": max(abs(outcome.x[ki] - primal.x[ki]) for ki in instance.agents),
        "total_tax": outcome.total_tax,
    })
    row.update(lemmas.as_dict())
    return row


_SWEEP_COLUMNS = [
    "seed", "instance_seed", "resample_tries", "status", "agents", "links",
    "welfare", "epsilon", "max_gain", "certified", "incomplete",
    "allocation_drift", "total_tax", "equal_prices", "dual_feas",
    "comp_slack", "stationarity", "ir", "wbb", "sbb", "rho_consensus",
]


def _certify_sweep(args: argparse.Namespace, seeds: List[int]) -> int:
    jobs = [(seed, args) for seed in sorted(seeds)]
    workers = _mech_workers(len(jobs))
    if workers == 1:
        rows = [_sweep_one(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    rows.sort(key=lambda r: r["seed"])

    os.makedirs(args.out, exist_ok=True)
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _write_manifest(args, "certify-sweep")
    n_cert = sum(1 for r in rows if r.get("certified") is True)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {len(rows)} seeds, {n_ok} solved, {n_cert} certified "
          f"-> {sweep_path}")
    if n_cert != len(rows):
        return _fail(EXIT_NUMERIC, "certification",
                     f"{len(rows) - n_cert} of {len(rows)} sweep seeds "
                     f"not certified")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if (args.seeds is None) == (args.instance is None):
        raise InstanceFormatError(
            "certify needs exactly one of --instance or --seeds")
    if args.seeds is not None:
        return _certify_sweep(args, _parse_seeds(args.seeds))
    return _certify_single(args)


def _parse_seeds(spec: str) -> List[int]:
    """Seed list syntax: '7', '1..50', or '1,4,9'; seeds are at least 0."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        elif "," in spec:
            seeds = [int(tok) for tok in spec.split(",") if tok]
        else:
            seeds = [int(spec)]
    except ValueError as exc:
        raise InstanceFormatError(f"bad --seeds value {spec!r}") from exc
    if not seeds:
        raise InstanceFormatError(f"empty --seeds value {spec!r}")
    if min(seeds) < 0:
        raise InstanceFormatError(f"negative seed in --seeds value {spec!r}")
    return seeds


# ---------------------------------------------------------------------------
# dynamics

def cmd_dynamics(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    require_valid(instance)
    params = _params_from(args)
    if args.start == "ne":
        primal, dual = solve_cp(instance, tol=args.tol)
        initial = construct_ne(instance, primal, dual, params).profile
    elif args.start == "zero":
        initial = {ki: zero_message(instance, ki, params.variant)
                   for ki in instance.agents}
    else:
        with open(args.start, "r", encoding="utf-8") as fh:
            initial = profile_from_json(fh.read(), instance)

    epsilon = args.epsilon if args.epsilon is not None else 1e-8
    result = br_dynamics(instance, initial, params, rounds=args.rounds,
                         epsilon=epsilon, budget=args.budget)
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectory.csv")
    with open(traj_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["round", "agent", "y", "x", "tax", "gain", "feasible"])
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
    _write(os.path.join(args.out, "dynamics.json"), canonical_json({
        "fixed_point": result.fixed_point,
        "rounds_run": result.rounds_run,
    }))
    _write(os.path.join(args.out, "final_profile.json"),
           profile_to_json(result.final_profile))
    _write_manifest(args, "dynamics")
    print(f"dynamics: rounds_run={result.rounds_run} "
          f"fixed_point={result.fixed_point} -> {traj_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _positive(name: str, high: float = math.inf):
    """A finite number in (0, high]."""
    def convert(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number")
        if not (0.0 < v <= high and math.isfinite(v)):
            bound = "positive" if high == math.inf else f"in (0, {high:g}]"
            raise argparse.ArgumentTypeError(f"{name} must be finite and {bound}")
        return v
    return convert


def _at_least(name: str, low: int):
    def convert(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer")
        if v < low:
            raise argparse.ArgumentTypeError(f"{name} must be at least {low}")
        return v
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcastmech",
        description="Multicast rate-allocation mechanisms: solve, certify, "
                    "and run best-response dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("--instance", required=True,
                           help="instance JSON file")
        p.add_argument("--tol", type=_positive("tol"), default=DEFAULT_TOL,
                       help="solver KKT residual target")
        p.add_argument("--out", default=".", help="output directory")

    def mech(p, epsilon_help):
        p.add_argument("--variant", choices=list(VARIANTS), default="wbb")
        p.add_argument("--eta", type=_positive("eta"), default=1e-2)
        p.add_argument("--xi", type=_positive("xi"), default=1e-2)
        p.add_argument("--zeta", type=_positive("zeta"), default=1e-2)
        p.add_argument("--epsilon", type=_positive("epsilon"), default=None, help=epsilon_help)
        p.add_argument("--budget", type=_at_least("budget", 1), default=1000,
                       help="cap on utility calls and rate-model reads per agent best response")

    p_solve = sub.add_parser("solve", help="welfare optimum + dual certificate")
    common(p_solve)
    p_solve.add_argument("--seed", type=_at_least("seed", 0), default=None,
                         help="jitter the interior starting point")
    p_solve.add_argument("--require-a4", action="store_true",
                         help="exit 4 unless every link has two demanding "
                              "groups at the optimum")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify",
                            help="construct the candidate equilibrium and "
                                 "compute every agent's best response")
    p_cert.add_argument("--instance", help="instance JSON file")
    p_cert.add_argument("--seeds", help="sweep seeds: '7', '1..50', or '1,4,9'")
    common(p_cert, needs_instance=False)
    mech(p_cert, "certification threshold (default 1e-6 * max valuation at the optimum)")
    p_cert.add_argument("--lemma-tol", type=_positive("lemma-tol"),
                        default=DEFAULT_LEMMA_TOL,
                        help="max allowed lemma violation for exit 0")
    p_cert.add_argument("--sweep-groups", type=_at_least("sweep-groups", 2), default=3)
    p_cert.add_argument("--sweep-members", type=_at_least("sweep-members", 1), default=3)
    p_cert.add_argument("--sweep-links", type=_at_least("sweep-links", 1), default=3)
    p_cert.add_argument("--sweep-density", type=_positive("sweep-density", 1.0), default=0.7,
                        help="route density of swept instances, in (0, 1]")
    p_cert.set_defaults(func=cmd_certify)

    p_dyn = sub.add_parser("dynamics", help="iterated best-response rounds")
    common(p_dyn)
    mech(p_dyn, "stop once no best-response gain of a round exceeds this (default 1e-8)")
    p_dyn.add_argument("--rounds", type=_at_least("rounds", 1), default=50)
    p_dyn.add_argument("--start", default="ne",
                       help="'ne', 'zero', or a profile JSON file")
    p_dyn.set_defaults(func=cmd_dynamics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(EXIT_INPUT, "input", f"cannot read or write: {exc}")
    except MechError as exc:
        code, kind = _error_code(exc)
        return _fail(code, kind, str(exc))


if __name__ == "__main__":
    sys.exit(main())
