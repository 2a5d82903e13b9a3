"""Tests of the benchmark's correctness checks and of its output contract.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import statistics
import sys

import numpy as np
import pytest

import run  # pins BLAS threads and locates the sources

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from mcastmech import (MechanismParams, allocate, construct_ne, evaluate,  # noqa: E402
                       random_instance, solve_cp)
from mcastmech.centralized import PrimalSolution  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def solved():
    inst = random_instance(2018, n_groups=4, max_group_size=1, n_links=1, density=0.91)
    primal, dual = solve_cp(inst, tol=workloads.SOLVE_TOL)
    return inst, primal, dual


def test_kkt_check_accepts_the_solution_and_rejects_a_perturbed_one(solved):
    inst, primal, dual = solved
    assert checks.check_kkt(inst, primal, dual, workloads.SOLVE_TOL) <= workloads.SOLVE_TOL
    ki = inst.agents[0]
    bumped = PrimalSolution({**primal.x, ki: primal.x[ki] * (1 + 1e-6)}, primal.m)
    with pytest.raises(checks.CheckFailure, match="KKT"):
        checks.check_kkt(inst, bumped, dual, workloads.SOLVE_TOL)


def test_feasibility_check_rejects_an_infeasible_allocation(solved):
    inst, primal, dual = solved
    params = MechanismParams(variant="wbb")
    profile = construct_ne(inst, primal, dual, params).profile
    out = evaluate(inst, profile, params)
    checks.check_feasible(inst, out.x, out.m)
    checks.check_allocation(inst, profile, out)
    ki = inst.agents[0]
    with pytest.raises(checks.CheckFailure, match="violation"):
        checks.check_feasible(inst, {**out.x, ki: out.x[ki] + 1e-9}, out.m)
    out.r *= 1.0 + 1e-9
    with pytest.raises(checks.CheckFailure, match="scale"):
        checks.check_allocation(inst, profile, out)


def test_reference_scale_matches_the_library_on_random_demands():
    rng = np.random.default_rng(7)
    inst = random_instance(814, n_groups=9, max_group_size=3, n_links=6, density=0.8)
    for _ in range(200):
        y = {ki: 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 40.0))
             for ki in inst.agents}
        assert checks.reference_scale(inst, y) == allocate(inst, y).r
    assert checks.reference_scale(inst, {ki: 0.0 for ki in inst.agents}) == 0.0


def test_quantile_interpolates_between_weighted_samples():
    assert stats.quantile([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 0.5) == 2.5
    assert stats.quantile([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 0.75) == 3.5
    assert stats.quantile([4.0, 1.0], [1.0, 1.0], 0.99) == 4.0
    # Two samples of one entry weigh as much as one sample of another.
    assert stats.quantile([1.0, 3.0, 2.0], [0.5, 0.5, 1.0], 0.5) == pytest.approx(2.0)


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def small_corpora(monkeypatch):
    """Two cheap entries per resampling workload, few profiles per rung."""
    for cls, keep in ((workloads.CertBatch, (2, 3)), (workloads.SolveLarge, (102, 103))):
        full = cls.chains
        monkeypatch.setattr(cls, "chains",
                            lambda self, full=full, keep=keep:
                            [c for c in full(self) if c[0] in keep])
    monkeypatch.setattr(workloads.ProfileEval, "PROFILES", 3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_prints_every_metric_with_its_unit(small_corpora, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line
                   for line in lines), name
    assert any(line.startswith("metric failed_frac = ") for line in lines)
    if workload == "cert_batch":
        assert any(line.startswith("metric sbb_certified_frac = ") for line in lines)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cert_batch", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_repeatable_runs_go_on_with_the_entry_that_had_least_time():
    class Corpus:
        n_strata = 3
        repeatable = True

        def stratum(self, k):
            return "abc"[k % 3]

    r = run.Run(Corpus(), 0.0, probe=None)
    assert [r.next_stratum(k) for k in range(3)] == ["a", "b", "c"]
    r.spent = {"a": 2.0, "b": 0.5, "c": 0.5}
    assert r.next_stratum(3) == "b"
    Corpus.repeatable = False
    assert r.next_stratum(3) == "a"


def test_probe_uses_an_ops_own_samples_when_it_has_enough():
    probe = run.SpeedProbe()
    probe.at = [float(t) for t in range(20)]
    probe.kernel_s = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    assert probe.inside(9.5, 14.5) == [2 * run.REFERENCE_S] * 5
    assert probe.factor(9.5, 14.5) == 0.5
    # Too few samples inside: the mean of the nearest ones.
    assert probe.factor(9.5, 10.5) == pytest.approx(
        run.REFERENCE_S / statistics.fmean(probe.kernel_s[:run.SpeedProbe.NEAREST]))
