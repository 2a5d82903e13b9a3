"""mcastmech benchmark: one workload, one seed, one timed window.

    python3 bench/run.py --workload cert_batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports the library from
``src/``. BLAS is pinned to one thread before numpy loads, and all load
comes from this one process (no pool, so ``MECH_THREADS`` has no effect).

Untraced (``--trace 0``): set up the inputs (five times, reporting the
median), warm up, then run ops over the workload's corpus until
``--seconds`` have passed and every corpus entry has run at least once.
The first pass visits every entry in turn. After it, a repeatable
workload (every op on an entry does the same work) next runs the entry
with the least op time spent so far, so that fast entries run many times
while slow ones run once or twice, and its op-time quantiles are taken
over each entry's median op time; other workloads keep going round-robin
and their quantiles are taken over all ops. Each op's outputs are
checked outside the timed region. Prints the end-to-end metrics.

On a shared machine the same work takes 15-40% longer from one second to
the next. A fixed kernel is timed between ops and inside untraced ops
(``speed.py``) and every time reported is rescaled by it to a reference
machine speed, which keeps runs made minutes apart comparable; the raw
figures are printed alongside.

``--workload all`` runs the three workloads one after another in this
process (peak RSS then accumulates across them).

Traced (``--trace 1``): every op runs twice, untraced and traced, in
alternating order; the traced copy records one span per call into a
layer. Prints the per-layer metrics, including the tracing overhead
(traced over untraced op time), and writes the spans to
``.bench_trace/<workload>-<seed>.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit; ``<workload>/<name>``
for ``--workload all``).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINS:
    os.environ[_var] = "1"

# numpy loads only now, after the pins.
from spans import NullTracer, Tracer  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from stats import quantile, stratum_mean  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# name -> unit. Ratios of two times or counts are "ratio"; per-op means
# are "s/op" or "count/op"; means are taken per corpus entry, then across
# entries, so every entry weighs the same however often it ran.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model.sample_s": "s",
    "centralized.solve_calls": "count/op",
    "centralized.solve_failed": "count/op",
    "centralized.accept_ratio": "ratio",
    "centralized.solve_s": "s/op",
    "centralized.solve_s_p50": "s",
    "centralized.solve_s_p90": "s",
    "centralized.solve_share": "ratio",
    "centralized.max_residual": "1",
    "equilibrium.certify_s": "s/op",
    "equilibrium.certify_evals": "count/op",
    "equilibrium.certify_us_per_eval": "us",
    "equilibrium.certify_share": "ratio",
    "equilibrium.wbb_gain_ratio": "ratio",
    "equilibrium.sbb_max_gain": "util",
    "equilibrium.tune_s": "s/op",
    "equilibrium.tune_shrinks": "count/op",
    "equilibrium.construct_s": "s/op",
    "equilibrium.lemmas_s": "s/op",
    "mechanism.evaluate_us.small": "us",
    "mechanism.evaluate_us.large": "us",
    "mechanism.deviation_us": "us",
    "cli.artifacts_s": "s/op",
    "model.self_s": "s/op",
    "centralized.self_s": "s/op",
    "mechanism.self_s": "s/op",
    "equilibrium.self_s": "s/op",
    "cli.self_s": "s/op",
    "bench.self_s": "s/op",
    "bench.trace_overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cert_batch, solve_large, profile_eval, or all (one after another)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment_line() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')}-{blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_name = "unknown"
    pins = " ".join(f"{v}={os.environ.get(v)}" for v in PINS)
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    return (f"# env python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_name} {pins} nproc={os.cpu_count()} affinity={affinity}")


def warm_up() -> None:
    """Let lazy set-up (first numpy.linalg call, first solve) finish
    before the first timed op."""
    from mcastmech import (MechanismParams, certify_ne, construct_ne, evaluate,
                           random_instance, solve_cp)
    inst = random_instance(3, n_groups=2, max_group_size=1, n_links=1)
    primal, dual = solve_cp(inst)
    params = MechanismParams(variant="wbb")
    cand = construct_ne(inst, primal, dual, params)
    certify_ne(inst, cand, 1e-6, budget=50, restarts=2)
    evaluate(inst, cand.profile, params)


class Run:
    """Runs ops over the workload's corpus and keeps, per execution,
    (op index, corpus entry, start, end, traced)."""

    def __init__(self, workload, seconds: float, probe) -> None:
        self.workload = workload
        self.seconds = seconds
        self.probe = probe
        self.failures = []
        self.quality = {}
        self.execs = []
        self.spent = {}

    def next_stratum(self, k: int):
        """The corpus entry of op k: round-robin through the first pass and
        for a workload that is not repeatable, otherwise the entry with the
        least op time spent so far (the earliest in the pass on a tie)."""
        w = self.workload
        if k < w.n_strata or not w.repeatable:
            return w.stratum(k)
        first_pass = [w.stratum(j) for j in range(w.n_strata)]
        return min(first_pass, key=lambda s: self.spent[s])

    def _execute(self, k: int, s, tr) -> None:
        """One op: timed work, then untimed checks."""
        from checks import CheckFailure
        self.probe.maybe_sample()
        error = None
        # Speed samples inside a traced op would land in its spans.
        with self.probe.during(enabled=not tr.enabled):
            t0 = time.perf_counter()
            try:
                result = tr.call("bench.op", self.workload.work, k, s, tr)
            except Exception as exc:  # an op that raises is a failed op; keep going
                error = exc
            t1 = time.perf_counter()
        if error is not None:
            where = traceback.extract_tb(error.__traceback__)[-1]
            self.failures.append(f"op {k}: {type(error).__name__}: {error} "
                                 f"({Path(where.filename).name}:{where.lineno})")
        else:
            try:
                self.quality[s] = self.workload.check(k, result)
            except CheckFailure as exc:
                self.failures.append(f"op {k}: {exc}")
        self.execs.append((k, s, t0, t1, tr.enabled))
        self.spent[s] = self.spent.get(s, 0.0) + (t1 - t0)

    def loop(self, tracer=None) -> None:
        """Ops until the window closes and every corpus entry has run; in a
        traced run each op runs untraced and traced, in alternating order."""
        from mcastmech.mechanism import DeviationEvaluator
        null = NullTracer()
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < self.workload.n_strata or time.perf_counter() < deadline:
            s = self.next_stratum(k)
            if tracer is None:
                self._execute(k, s, null)
            else:
                tracer.op = k
                for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced_turn:
                        with tracer.patched(DeviationEvaluator, "utility",
                                            "mechanism.deviation_eval"):
                            self._execute(k, s, tracer)
                    else:
                        self._execute(k, s, null)
            k += 1
        self.probe.sample()

    def op_times(self, traced: bool):
        """(op indices, corpus entries, raw seconds, speed factors); raw
        seconds leave out the speed samples taken inside the op."""
        rows = [(k, s, t1 - t0 - sum(self.probe.inside(t0, t1)), self.probe.factor(t0, t1))
                for k, s, t0, t1, tr in self.execs if tr == traced]
        return tuple(list(col) for col in zip(*rows))


def end_to_end(run: Run, setup_s: float):
    tail_q = run.workload.tail_q
    _, strata, raw, factors = run.op_times(traced=False)
    times = [t * f for t, f in zip(raw, factors)]
    by = {}
    for s, t in zip(strata, times):
        by.setdefault(s, []).append(t)
    if run.workload.repeatable:
        # Repeats of an entry re-measure the same work: one median per entry.
        samples = [statistics.median(v) for v in by.values()]
        weights = [1.0] * len(samples)
        of = f"{len(samples)} corpus entries' median op times"
    else:
        samples = times
        weights = [1.0 / len(by[s]) for s in strata]
        of = f"{len(times)} ops"
    tail = quantile(samples, weights, tail_q)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": 1.0 / stratum_mean(times, strata),
        "op_s_p50": quantile(samples, weights, 0.5),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for t in samples if t > tail)
    runs = sorted(len(v) for v in by.values())
    notes = {
        "op_s_p50": f"of {of}",
        "op_s_tail": f"p{100 * tail_q:g} of {of}, {beyond} beyond",
        "ops_per_s": f"{len(times)} ops over {len(by)} corpus entries, "
                     f"{runs[0]}-{runs[-1]} each; raw {1.0 / stratum_mean(raw, strata):.6g}",
    }
    return metrics, notes


def per_layer(run: Run, tracer):
    ks, strata, raw, factors = run.op_times(traced=True)
    _, _, raw_plain, factors_plain = run.op_times(traced=False)
    factor = dict(zip(ks, factors))
    rows = {}
    for k, row in tracer.per_op().items():
        f = factor.get(k, 1.0)
        rows[k] = {key: v * f if key.startswith(("span:", "self:")) else v
                   for key, v in row.items()}

    def avg(key):
        return stratum_mean([rows[k].get(key, 0.0) for k in ks], strata)

    def per_call(name):
        calls = sum(rows[k].get("calls:" + name, 0.0) for k in ks)
        seconds = sum(rows[k].get("span:" + name, 0.0) for k in ks)
        return 1e6 * seconds / calls if calls else 0.0

    solves = sorted(d * factor[k] for k, d in tracer.durations("centralized.solve_cp")
                    if k in factor)
    op_s = avg("span:bench.op")
    evals = avg("certify_evals")
    metrics = {
        "model.sample_s": rows.get("setup", {}).get("span:model.random_instance", 0.0),
        "centralized.solve_calls": avg("solve_calls"),
        "centralized.solve_failed": avg("solve_failed"),
        "centralized.accept_ratio": (avg("solve_accepted") / avg("solve_calls")
                                     if avg("solve_calls") else 0.0),
        "centralized.solve_s": avg("span:centralized.solve_cp"),
        "centralized.solve_s_p50": quantile(solves, [1.0] * len(solves), 0.5) if solves else 0.0,
        "centralized.solve_s_p90": (quantile(solves, [1.0] * len(solves), 0.9)
                                    if solves else 0.0),
        "centralized.solve_share": avg("span:centralized.solve_cp") / op_s,
        "centralized.max_residual": tracer.peaks.get("max_residual", 0.0),
        "equilibrium.certify_s": avg("span:equilibrium.certify_ne"),
        "equilibrium.certify_evals": evals,
        "equilibrium.certify_us_per_eval": (1e6 * avg("span:equilibrium.certify_ne") / evals
                                            if evals else 0.0),
        "equilibrium.certify_share": avg("span:equilibrium.certify_ne") / op_s,
        "equilibrium.wbb_gain_ratio": tracer.peaks.get("wbb_gain_ratio", 0.0),
        "equilibrium.sbb_max_gain": tracer.peaks.get("sbb_max_gain", 0.0),
        "equilibrium.tune_s": avg("span:equilibrium.tune_params"),
        "equilibrium.tune_shrinks": avg("tune_shrinks"),
        "equilibrium.construct_s": avg("span:equilibrium.construct_ne"),
        "equilibrium.lemmas_s": avg("span:equilibrium.lemma_suite"),
        "mechanism.evaluate_us.small": per_call("mechanism.evaluate.small"),
        "mechanism.evaluate_us.large": per_call("mechanism.evaluate.large"),
        "mechanism.deviation_us": per_call("mechanism.deviation_eval"),
        "cli.artifacts_s": avg("span:cli.artifacts"),
        "bench.trace_overhead_frac": (
            sum(t * f for t, f in zip(raw, factors))
            / sum(t * f for t, f in zip(raw_plain, factors_plain)) - 1.0),
    }
    for layer in ("model", "centralized", "mechanism", "equilibrium", "cli", "bench"):
        metrics[layer + ".self_s"] = avg("self:" + layer)
    notes = {
        "centralized.solve_share": "solve_cp time over op time",
        "equilibrium.certify_share": "certify_ne time over op time",
        "bench.trace_overhead_frac": f"{len(raw)} traced vs {len(raw_plain)} untraced ops",
    }
    return metrics, notes


def run_workload(workload, args, boot_s: float):
    """Set up, run and report one workload; returns its result object."""
    print(f"# run workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    probe = SpeedProbe()
    run = Run(workload, args.seconds, probe)
    tracer = Tracer() if args.trace else None
    intervals, digests = [], []
    probe.sample()
    for repeat in range(SETUP_REPEATS):
        tr = tracer if (tracer is not None and repeat == 0) else NullTracer()
        if tracer is not None:
            tracer.op = "setup"
        with probe.during(enabled=not tr.enabled):
            t0 = time.perf_counter()
            digests.append(tr.call("bench.setup", workload.setup, args.seed, tr))
            t1 = time.perf_counter()
        intervals.append((t0, t1))
        probe.sample()
    print(f"# inputs digest={digests[0]} (set up {SETUP_REPEATS} times, "
          f"{'identical' if len(set(digests)) == 1 else 'DIFFERENT'})")

    # The inputs live through the run: keep the collector from scanning them.
    gc.collect()
    gc.freeze()
    run.loop(tracer)
    gc.unfreeze()
    # Set-up is rescaled like an op, once all the speed samples are in.
    gen_raw = [t1 - t0 - sum(probe.inside(t0, t1)) for t0, t1 in intervals]
    gen_s = [t * probe.factor(t0, t1) for t, (t0, t1) in zip(gen_raw, intervals)]
    raw_setup_s = boot_s + statistics.median(gen_raw)
    setup_s = (boot_s * probe.factor(intervals[0][0], intervals[0][0])
               + statistics.median(gen_s))
    for line in workload.describe():
        print(f"# input {workload.name} {line}")
    for line in run.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# speed: kernel median {1e3 * statistics.median(probe.kernel_s):.2f} ms over "
          f"{len(probe.kernel_s)} samples; times are rescaled to a "
          f"{1e3 * REFERENCE_S:g} ms kernel; raw setup {raw_setup_s:.4g} s "
          f"(boot {boot_s:.4g} s)")

    attempted = len(run.execs)
    failed = len(run.failures)
    print(f"metric failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    sbb = [q["sbb_certified"] for q in run.quality.values() if "sbb_certified" in q]
    if sbb:
        print(f"metric sbb_certified_frac = {statistics.fmean(sbb):.6g} ratio "
              f"({int(sum(sbb))} of {len(sbb)} instances; documented SBB leak)")
    if tracer is None:
        metrics, notes = end_to_end(run, setup_s)
        units = END_TO_END
    else:
        metrics, notes = per_layer(run, tracer)
        units = PER_LAYER
        os.makedirs(ROOT / ".bench_trace", exist_ok=True)
        path = ROOT / ".bench_trace" / f"{workload.name}-{args.seed}.json"
        tracer.dump(str(path))
        print(f"# spans written to {path.relative_to(ROOT)}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    return {
        "correct": failed == 0 and len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcastmech" / "__init__.py").is_file():
        print(f"bench: no mcastmech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not args.seconds > 0 or args.seed < 0:
        print("bench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    warm_up()
    boot_s = time.perf_counter() - T_START
    print(environment_line())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name](), args, boot_s) for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
