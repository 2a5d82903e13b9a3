"""The benchmark's three workloads: inputs, one op, and its checks.

Every workload runs a fixed corpus of instances, so that runs and commits
compare like with like: per instance, solve time is bimodal (0.02-0.1 s
when the barrier reaches tol, 0.7-10 s when the active-set polish runs)
and certify time grows with agents x links, so a seed-drawn set of the
15-30 ops a run completes would spread its throughput by more than any
usable bound. The seed drives everything else: the op order, the
certification search's random starts, and the random message profiles.

Each workload states the level of its tail percentile (``tail_q``).

``setup`` makes the inputs (all ``random_instance`` draws and random
profiles); ``work`` is one timed op on one corpus entry through the
library's public calls; ``check`` verifies that op's outputs and runs
outside the timed region. A workload is ``repeatable`` when every op on
an entry does the same work, so that a repeat re-measures it.
Calls go through a tracer, which in a traced run records one span per
call into a layer (see ``spans.py``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np

from mcastmech import (MechanismParams, Message, certify_ne, check_a4,
                       construct_ne, default_epsilon, evaluate, instance_to_json,
                       lemma_suite, profile_to_json, random_instance,
                       solution_to_json, solve_cp, tune_params)
from mcastmech.centralized import DEFAULT_TOL
from mcastmech.mechanism import outcome_to_dict
from mcastmech.errors import SolverError, ValidationFailure

import checks

SOLVE_TOL = DEFAULT_TOL


def _dump(doc) -> str:
    """The cli's artifact text: indented, key-sorted JSON plus newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _describe(inst) -> str:
    return (f"agents={len(inst.agents)} links={len(inst.link_ids)} "
            f"sha256={_digest(instance_to_json(inst))}")


def _size_class(inst) -> str:
    """Size label for evaluate spans: small (<= 8 agents), large (>= 20)."""
    n = len(inst.agents)
    return "small" if n <= 8 else "large" if n >= 20 else "mid"


def _draw(tr, seed: int, **shape):
    """One ``random_instance`` draw, or None when the generator rejects it."""
    try:
        return tr.call("model.random_instance", random_instance, seed, **shape)
    except ValidationFailure:
        return None


class _Resampled:
    """Corpus of resampling chains, as in the acceptance batch and the
    cli's seed sweep: chain c draws ``random_instance`` at seeds
    c * 1009 + attempt until ``solve_cp`` succeeds and ``check_a4`` holds.
    A stalled or non-sharing draw stays in the op's time and counts in
    ``centralized.solve_failed`` / ``centralized.accept_ratio``."""

    TRIES = 40
    PREDRAW = 3
    repeatable = True

    def chains(self) -> List[Tuple[int, Dict[str, object]]]:
        raise NotImplementedError

    def setup(self, seed: int, tr) -> str:
        self.seed = seed
        self.shapes = dict(self.chains())
        keys = list(self.shapes)
        self.order = [keys[(seed + j) % len(keys)] for j in range(len(keys))]
        # The first draws of every chain; a chain that needs more draws
        # makes them inside the op.
        self.draws: Dict[Tuple[int, int], object] = {}
        for c, shape in self.shapes.items():
            for attempt in range(self.PREDRAW):
                self.draws[(c, attempt)] = _draw(tr, c * 1009 + attempt, **shape)
        self.chosen: Dict[int, Tuple[int, object]] = {}
        return _digest("".join(instance_to_json(inst) if inst else "-"
                               for _, inst in sorted(self.draws.items())))

    @property
    def n_strata(self) -> int:
        return len(self.order)

    def stratum(self, k: int) -> int:
        return self.order[k % len(self.order)]

    def sample(self, tr, c: int):
        """The chain's first draw that solves and meets the sharing condition."""
        for attempt in range(self.TRIES):
            inst = self.draws.get((c, attempt))
            if inst is None and attempt >= self.PREDRAW:
                inst = _draw(tr, c * 1009 + attempt, **self.shapes[c])
            if inst is None:
                continue
            tr.count("solve_calls")
            try:
                primal, dual = tr.call("centralized.solve_cp", solve_cp, inst, tol=SOLVE_TOL)
            except SolverError:
                tr.count("solve_failed")
                continue
            if tr.call("centralized.check_a4", check_a4, inst, primal).holds:
                tr.count("solve_accepted")
                tr.peak("max_residual", dual.residuals.max_residual)
                self.chosen[c] = (c * 1009 + attempt, inst)
                return inst, primal, dual
        raise checks.CheckFailure(f"no solvable sharing draw in chain {c}")

    def describe(self) -> List[str]:
        return [f"chain={c} instance_seed={iseed} {_describe(inst)}"
                for c, (iseed, inst) in sorted(self.chosen.items())]


class CertBatch(_Resampled):
    """Acceptance batch seeds 1-16 through the ``mcastmech certify`` path.

    One op is one batch seed: sample its instance, then for each variant
    tune, construct, certify (budget 1000, restarts 8), run the lemma
    suite, evaluate and serialize the certify artifacts.
    """

    name = "cert_batch"
    tail_q = 0.75
    BUDGET = 1000
    RESTARTS = 8

    def chains(self):
        """The acceptance batch shape per seed: 2-4 groups of up to 3
        members on 1-6 links, route density U[0.5, 1]."""
        out = []
        # An even count puts the median and the upper quartile between two
        # entries, so noise that swaps their order does not move either.
        for s in range(1, 17):
            rng = np.random.default_rng(s)
            out.append((s, {"n_groups": int(rng.integers(2, 5)),
                            "max_group_size": int(rng.integers(1, 4)),
                            "n_links": int(rng.integers(1, 7)),
                            "density": float(rng.uniform(0.5, 1.0))}))
        return out

    def work(self, k: int, s: int, tr):
        inst, primal, dual = self.sample(tr, s)
        epsilon = tr.call("equilibrium.default_epsilon", default_epsilon, inst, primal)
        variants = {}
        for variant in ("wbb", "sbb"):
            params, shrinks, curv = tr.call("equilibrium.tune_params", tune_params, inst,
                                            primal, dual, MechanismParams(variant=variant))
            tr.count("tune_shrinks", shrinks)
            cand = tr.call("equilibrium.construct_ne", construct_ne, inst, primal, dual, params)
            report = tr.call("equilibrium.certify_ne", certify_ne, inst, cand, epsilon,
                             budget=self.BUDGET, restarts=self.RESTARTS,
                             seed=self.seed * 1009 + s)
            tr.count("certify_evals", sum(report.evals.values()))
            lemmas = tr.call("equilibrium.lemma_suite", lemma_suite, inst, cand)
            outcome = tr.call("mechanism.evaluate." + _size_class(inst), evaluate,
                              inst, cand.profile, params)
            tr.call("cli.artifacts", self.artifacts, inst, cand, outcome, report,
                    lemmas, curv, shrinks, params)
            variants[variant] = (outcome, report, lemmas)
            tr.peak(variant + "_gain_ratio", report.max_gain / epsilon)
            tr.peak(variant + "_max_gain", report.max_gain)
        return inst, primal, dual, variants

    @staticmethod
    def artifacts(inst, cand, outcome, report, lemmas, curv, shrinks, params):
        """The documents ``mcastmech certify`` writes for one instance."""
        return {
            "equilibrium_profile.json": profile_to_json(cand.profile),
            "outcome.json": _dump(outcome_to_dict(inst, outcome)),
            "certification.json": _dump(report.as_dict()),
            "lemmas.json": _dump(lemmas.as_dict()),
            "curvature.json": _dump({
                "agents": curv.as_dict(), "all_pass": curv.all_pass,
                "auto_shrink_iterations": shrinks,
                "params": {"eta": params.eta, "xi": params.xi,
                           "zeta": params.zeta, "variant": params.variant}}),
        }

    def check(self, k: int, result) -> Dict[str, float]:
        inst, primal, dual, variants = result
        checks.check_kkt(inst, primal, dual, SOLVE_TOL)
        for variant, (outcome, report, lemmas) in variants.items():
            checks.check_drift(inst, primal, outcome)
            checks.check_lemmas(lemmas)
            checks.check_feasible(inst, outcome.x, outcome.m)
            if variant == "wbb" and not report.certified:
                raise checks.CheckFailure(
                    f"WBB candidate not certified: gain {report.max_gain:.3e} "
                    f"> epsilon {report.epsilon:.3e}")
        return {"sbb_certified": float(variants["sbb"][1].certified)}


class SolveLarge(_Resampled):
    """Chains with groups = links alternating 8 and 12, up to 3 members
    per group (11-36 agents). One op samples its chain's instance, then
    constructs the WBB candidate, runs the lemma suite and serializes
    ``solution.json`` and ``kkt_report.json``; no search."""

    name = "solve_large"
    tail_q = 0.75

    def chains(self):
        out = []
        for j in range(1, 13):
            size = 8 if j % 2 else 12
            out.append((100 + j, {"n_groups": size, "max_group_size": 3, "n_links": size}))
        return out

    def work(self, k: int, s: int, tr):
        inst, primal, dual = self.sample(tr, s)
        cand = tr.call("equilibrium.construct_ne", construct_ne, inst, primal, dual,
                       MechanismParams(variant="wbb"))
        lemmas = tr.call("equilibrium.lemma_suite", lemma_suite, inst, cand)
        tr.call("cli.artifacts", lambda: {
            "solution.json": solution_to_json(inst, primal, dual),
            "kkt_report.json": _dump(dual.residuals.as_dict())})
        return inst, primal, dual, lemmas

    def check(self, k: int, result) -> Dict[str, float]:
        inst, primal, dual, lemmas = result
        checks.check_kkt(inst, primal, dual, SOLVE_TOL)
        checks.check_lemmas(lemmas)
        return {}


class ProfileEval:
    """Random off-equilibrium message profiles evaluated under both
    variants on a ladder of seven instances of 6 to 30 agents.

    Profiles mirror acceptance criterion 2: demand U[0, 2 * max capacity]
    with 10% exact zeros, quotes U[0, 2], and for SBB a consensus scale
    rho U[0, 2]. One op is one profile evaluated with ``evaluate`` for
    both variants; ops cycle over the instances.
    """

    name = "profile_eval"
    tail_q = 0.99
    repeatable = False  # each op evaluates another profile
    # (agents, groups, links): the generator is redrawn until the agent
    # count matches, so every rung has the stated size.
    LADDER = ((6, 3, 2), (8, 4, 3), (12, 6, 4), (16, 8, 5), (20, 10, 7), (24, 12, 8),
              (30, 15, 10))
    PROFILES = 256
    PARAMS = {"wbb": MechanismParams(variant="wbb"), "sbb": MechanismParams(variant="sbb")}

    def setup(self, seed: int, tr) -> str:
        self.instances = []
        for rung, (agents, groups, links) in enumerate(self.LADDER):
            iseed = 200 * (rung + 1)
            while True:
                inst = _draw(tr, iseed, n_groups=groups, max_group_size=3,
                             n_links=links, density=0.8)
                if inst is not None and len(inst.agents) == agents:
                    break
                iseed += 1
            self.instances.append((iseed, inst))
        rng = np.random.default_rng(seed)
        self.profiles = []
        hasher = hashlib.sha256()
        for _, inst in self.instances:
            cap = max(inst.capacity.values())
            n_q = sum(len(inst.links_of[ki]) for ki in inst.agents)
            n_a = len(inst.agents)
            y = rng.uniform(0.0, 2.0 * cap, size=(self.PROFILES, n_a))
            y[rng.random((self.PROFILES, n_a)) < 0.1] = 0.0
            q = rng.uniform(0.0, 2.0, size=(self.PROFILES, n_q, 2))
            rho = rng.uniform(0.0, 2.0, size=(self.PROFILES, n_a))
            for arr in (y, q, rho):
                hasher.update(arr.tobytes())
            rows = []
            for p in range(self.PROFILES):
                wbb, sbb = {}, {}
                j = 0
                for a, ki in enumerate(inst.agents):
                    quotes = {}
                    for lid in inst.links_of[ki]:
                        quotes[lid] = (float(q[p, j, 0]), float(q[p, j, 1]))
                        j += 1
                    wbb[ki] = Message(float(y[p, a]), quotes, None)
                    sbb[ki] = Message(float(y[p, a]), quotes, float(rho[p, a]))
                rows.append((wbb, sbb))
            self.profiles.append(rows)
        return _digest("".join(instance_to_json(inst) for _, inst in self.instances)
                       + hasher.hexdigest())

    @property
    def n_strata(self) -> int:
        return len(self.instances)

    def stratum(self, k: int) -> int:
        return k % len(self.instances)

    def work(self, k: int, rung: int, tr):
        inst = self.instances[rung][1]
        wbb, sbb = self.profiles[rung][(k // len(self.instances)) % self.PROFILES]
        size = _size_class(inst)
        out_w = tr.call("mechanism.evaluate." + size, evaluate, inst, wbb, self.PARAMS["wbb"])
        out_s = tr.call("mechanism.evaluate." + size, evaluate, inst, sbb, self.PARAMS["sbb"])
        return inst, wbb, sbb, out_w, out_s

    def check(self, k: int, result) -> Dict[str, float]:
        inst, wbb, sbb, out_w, out_s = result
        checks.check_allocation(inst, wbb, out_w)
        checks.check_allocation(inst, sbb, out_s)
        return {}

    def describe(self) -> List[str]:
        return [f"instance_seed={iseed} {_describe(inst)} profiles={self.PROFILES}"
                for iseed, inst in self.instances]


WORKLOADS = {w.name: w for w in (CertBatch, SolveLarge, ProfileEval)}
