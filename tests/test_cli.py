"""Command-line surface: exit codes, files, determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

import mcastmech
from mcastmech import LOG_SAT, instance_to_json, random_instance
from mcastmech.cli import build_parser

from conftest import batch_shape, make_instance

# The CLI runs in a child process; point it at the package these tests import.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(mcastmech.__file__))


def run_cli(*args, threads="1", **extra_env):
    env = dict(os.environ, **extra_env)
    env["MECH_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "mcastmech.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def sym_path(tmp_path_factory, symmetric_instance):
    p = tmp_path_factory.mktemp("inst") / "sym.json"
    p.write_text(instance_to_json(symmetric_instance))
    return str(p)


@pytest.fixture(scope="module")
def a4bad_path(tmp_path_factory, a4_fail_instance):
    p = tmp_path_factory.mktemp("inst") / "a4bad.json"
    p.write_text(instance_to_json(a4_fail_instance))
    return str(p)


@pytest.fixture(scope="module")
def a3bad_path(tmp_path_factory):
    doc = {
        "links": [{"id": "l1", "capacity": 10.0}, {"id": "l2", "capacity": 5.0}],
        "agents": [
            {
                "group": 1,
                "member": 1,
                "valuation": {"family": "log_sat", "a": 1.0, "b": 1.0},
                "route": [{"link": "l1", "alpha": 1.0}, {"link": "l2", "alpha": 1.0}],
            },
            {
                "group": 2,
                "member": 1,
                "valuation": {"family": "log_sat", "a": 1.0, "b": 1.0},
                "route": [{"link": "l1", "alpha": 1.0}],
            },
        ],
    }
    p = tmp_path_factory.mktemp("inst") / "a3bad.json"
    p.write_text(json.dumps(doc))
    return str(p)


def error_doc(proc):
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc["error"]) == {"code", "kind", "message"}
    return doc["error"]


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_solution(tmp_path, sym_path):
    out = tmp_path / "run"
    proc = run_cli("solve", "--instance", sym_path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    sol = json.loads((out / "solution.json").read_text())
    assert sol["x"]["1.1"] == pytest.approx(5.0, abs=1e-8)
    assert sol["lambda"]["l1"] == pytest.approx(1 / 6, abs=1e-8)
    kkt = json.loads((out / "kkt_report.json").read_text())
    assert kkt["max_residual"] <= 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timestamp" not in json.dumps(manifest).lower()
    assert manifest["command"] == "solve"


def test_solve_reruns_byte_identical(tmp_path, sym_path):
    out = tmp_path / "run"
    assert run_cli("solve", "--instance", sym_path, "--out", str(out)).returncode == 0
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert run_cli("solve", "--instance", sym_path, "--out", str(out)).returncode == 0
    second = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert first == second


@pytest.mark.parametrize("groups", [12, 25])
def test_solution_independent_of_blas_threads(tmp_path, groups):
    # The 22- and 50-agent ladder instances, where a dense factorisation
    # of the full normal matrix rounded differently under two BLAS threads.
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(random_instance(1, groups, 3, groups)))
    written = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        proc = run_cli("solve", "--instance", str(path), "--out", str(out),
                       OPENBLAS_NUM_THREADS=blas)
        assert proc.returncode == 0, proc.stderr
        written.append((out / "solution.json").read_bytes())
    assert written[0] == written[1]


def test_solve_missing_file_is_input_error(tmp_path):
    proc = run_cli("solve", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert error_doc(proc)["code"] == 2


def test_solve_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    proc = run_cli("solve", "--instance", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert error_doc(proc)["kind"] == "input"


def test_solve_invalid_instance_is_validation_error(tmp_path, a3bad_path):
    proc = run_cli("solve", "--instance", a3bad_path, "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert error_doc(proc)["kind"] == "validation"


def test_solve_require_a4_flag(tmp_path, a4bad_path):
    ok = run_cli("solve", "--instance", a4bad_path, "--out", str(tmp_path / "o1"))
    assert ok.returncode == 0  # without the flag the solve itself is fine
    proc = run_cli("solve", "--instance", a4bad_path, "--require-a4", "--out", str(tmp_path / "o2"))
    assert proc.returncode == 4
    assert error_doc(proc)["kind"] == "sharing"


# ---------------------------------------------------------------------------
# certify


def test_certify_single_instance(tmp_path, sym_path):
    out = tmp_path / "cert"
    proc = run_cli("certify", "--instance", sym_path, "--variant", "wbb", "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    for name in (
        "equilibrium_profile.json",
        "outcome.json",
        "certification.json",
        "lemmas.json",
        "curvature.json",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    cert = json.loads((out / "certification.json").read_text())
    assert cert["certified"] is True
    assert cert["incomplete"] == []
    lemmas = json.loads((out / "lemmas.json").read_text())
    assert all(v <= 1e-8 for v in lemmas.values())
    curvature = json.loads((out / "curvature.json").read_text())
    assert curvature["all_pass"] is True


def test_certify_sbb_reports_failure_but_writes_files(tmp_path, sym_path):
    """SBB certify of the symmetric instance: exit 0, every file written,
    the candidate certified and the budget balanced at it."""
    out = tmp_path / "cert_sbb"
    proc = run_cli("certify", "--instance", sym_path, "--variant", "sbb", "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    for name in (
        "equilibrium_profile.json",
        "outcome.json",
        "certification.json",
        "lemmas.json",
        "curvature.json",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    cert = json.loads((out / "certification.json").read_text())
    assert cert["certified"] is True
    assert cert["max_gain"] <= cert["epsilon"]
    lemmas = json.loads((out / "lemmas.json").read_text())
    assert lemmas["sbb"] <= 1e-9


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("shape", [(3, 12, 3, 12), (1, 25, 3, 25)])
def test_certify_replays_shut_out_agents_at_zero(tmp_path, shape, variant):
    """On these ladder draws (25 and 50 agents) the optimum shuts some
    agents out, and the interior-point solver leaves them a rate residue of
    about 1e-16. Replayed as a demand, that residue made the demand's
    one-sided curvature positive, and tuning the coupling weights down to
    their floor failed (exit 5). Replayed at demand 0, the candidate passes
    the curvature check untuned and is certified."""
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(random_instance(*shape)))
    out = tmp_path / "cert"
    proc = run_cli("certify", "--instance", str(path), "--variant", variant, "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    cert = json.loads((out / "certification.json").read_text())
    assert cert["certified"] is True
    assert json.loads((out / "curvature.json").read_text())["all_pass"] is True
    profile = json.loads((out / "equilibrium_profile.json").read_text())
    assert any(msg["y"] == 0.0 for msg in profile.values())


@pytest.mark.parametrize("variant", ["wbb", "sbb"])
@pytest.mark.parametrize("seed, instance_seed", [(60, 60540), (352, 355168)])
def test_certify_passes_saturated_batch_draws(tmp_path, seed, instance_seed, variant):
    """The acceptance-shaped draws of batch seeds 60 and 352 each hold
    saturated exp_sat agents (v' below 1e-18 at the optimum) whose demand
    gradient keeps a rounding residue: at seed 60, agent 1.1 has
    U_x = -7.7e-14 and x'' = -0.032. Read in y, the demand entry
    U_xx*x'^2 + U_x*x'' came out about +2.5e-15, above the rounding bound,
    and certify exited 5. Read in the rate, as local_model reads it, the
    candidate passes curvature_check at the default weights and is
    certified."""
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(random_instance(instance_seed, *batch_shape(seed))))
    out = tmp_path / "cert"
    proc = run_cli("certify", "--instance", str(path), "--variant", variant, "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    curvature = json.loads((out / "curvature.json").read_text())
    assert curvature["all_pass"] is True
    assert curvature["params"] == {"eta": 0.01, "xi": 0.01, "zeta": 0.01, "variant": variant}
    assert json.loads((out / "certification.json").read_text())["certified"] is True


def test_certify_sweep_csv(tmp_path, sym_path):
    out = tmp_path / "sweep"
    proc = run_cli(
        "certify",
        "--seeds",
        "1..3",
        "--variant",
        "wbb",
        "--sweep-groups",
        "2",
        "--sweep-members",
        "2",
        "--sweep-links",
        "2",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["1", "2", "3"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["certified"] == "True" for r in rows)
    assert all(r["incomplete"] == "0" for r in rows)


def test_certify_seed_list_and_rerun_stable(tmp_path):
    out = tmp_path / "sweep"
    args = (
        "certify", "--seeds", "2,4", "--variant", "wbb",
        "--sweep-groups", "2", "--sweep-members", "1", "--sweep-links", "1",
        "--out", str(out),
    )
    assert run_cli(*args).returncode == 0
    first = (out / "sweep.csv").read_bytes()
    assert run_cli(*args).returncode == 0
    assert (out / "sweep.csv").read_bytes() == first


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_from_constructed_start(tmp_path, sym_path):
    out = tmp_path / "dyn"
    proc = run_cli(
        "dynamics", "--instance", sym_path, "--start", "ne", "--rounds", "5",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    doc = json.loads((out / "dynamics.json").read_text())
    assert doc["fixed_point"] is True
    assert doc["rounds_run"] == 1
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one round, two agents
    assert set(rows[0]) == {"round", "agent", "y", "x", "tax", "gain", "feasible"}


def test_dynamics_keeps_a_certified_candidate(tmp_path):
    """On batch seed 1 (instance seed 1009) no best response from the
    certified candidate gains more than rounding, so the dynamics adopt
    none: they stop in round 1 at a fixed point, and the final profile is
    the candidate, byte for byte."""
    path = tmp_path / "seed1.json"
    path.write_text(instance_to_json(random_instance(1009, *batch_shape(1))))
    cert, dyn = tmp_path / "cert", tmp_path / "dyn"
    proc = run_cli("certify", "--instance", str(path), "--out", str(cert))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    proc = run_cli("dynamics", "--instance", str(path), "--start", "ne", "--out", str(dyn))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    doc = json.loads((dyn / "dynamics.json").read_text())
    assert doc["fixed_point"] is True and doc["rounds_run"] == 1
    assert (dyn / "final_profile.json").read_bytes() == \
        (cert / "equilibrium_profile.json").read_bytes()


def test_dynamics_from_zero_start(tmp_path, sym_path):
    out = tmp_path / "dyn0"
    proc = run_cli(
        "dynamics", "--instance", sym_path, "--start", "zero", "--rounds", "3",
        "--out", str(out),
    )
    assert proc.returncode == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert 2 <= len(rows) <= 6
    assert all(r["feasible"] == "True" for r in rows)
    assert (out / "final_profile.json").exists()


def test_dynamics_has_one_schedule(tmp_path, sym_path):
    """Best responses are adopted in turn (Gauss-Seidel), the one schedule:
    --schedule is no option, and dynamics.json records no schedule."""
    proc = run_cli("dynamics", "--instance", sym_path, "--schedule", "jacobi",
                   "--out", str(tmp_path / "jacobi"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "jacobi").exists()
    proc = run_cli("dynamics", "--instance", sym_path, "--rounds", "2",
                   "--out", str(tmp_path / "dyn"))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    doc = json.loads((tmp_path / "dyn" / "dynamics.json").read_text())
    assert set(doc) == {"fixed_point", "rounds_run"}


def _write_profile(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_dynamics_from_profile_file_reruns_byte_identical(tmp_path, sym_path):
    start = _write_profile(tmp_path / "start.json", {
        "1.1": {"y": 2.0, "q": {"l1": [0.1, 0.1]}},
        "2.1": {"y": 7.0, "q": {"l1": [0.3, 0.2]}},
    })
    out = tmp_path / "dynf"
    args = ("dynamics", "--instance", sym_path, "--start", start, "--rounds", "3",
            "--out", str(out))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    names = ("trajectory.csv", "dynamics.json", "final_profile.json", "manifest.json")
    first = {n: (out / n).read_bytes() for n in names}
    assert run_cli(*args).returncode == 0
    assert {n: (out / n).read_bytes() for n in names} == first


def test_dynamics_profile_file_errors(tmp_path, sym_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("dynamics", "--instance", sym_path, "--start", str(bad),
                   "--out", str(tmp_path / "o1"))
    assert proc.returncode == 2
    assert error_doc(proc)["kind"] == "input"

    partial = _write_profile(tmp_path / "partial.json",
                             {"1.1": {"y": 2.0, "q": {"l1": [0.1, 0.1]}}})
    proc = run_cli("dynamics", "--instance", sym_path, "--start", partial,
                   "--out", str(tmp_path / "o2"))
    assert proc.returncode == 3
    assert error_doc(proc)["kind"] == "validation"


def test_coerced_input_values_exit_2(tmp_path, sym_path, symmetric_instance):
    """A member of 1.9 in an instance file is not agent 1.1, and a quote of
    three numbers in a start profile does not lose its third: both are
    unreadable input."""
    doc = json.loads(instance_to_json(symmetric_instance))
    doc["agents"][0]["member"] = 1.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("solve", "--instance", str(bad), "--out", str(tmp_path / "o1"))
    assert proc.returncode == 2
    assert error_doc(proc)["kind"] == "input"

    start = _write_profile(tmp_path / "start.json", {
        "1.1": {"y": 2.0, "q": {"l1": [0.1, 0.1, 7.0]}},
        "2.1": {"y": 7.0, "q": {"l1": [0.3, 0.2]}},
    })
    proc = run_cli("dynamics", "--instance", sym_path, "--start", start,
                   "--out", str(tmp_path / "o2"))
    assert proc.returncode == 2
    assert error_doc(proc)["kind"] == "input"


def test_noncanonical_input_exits_2(tmp_path, sym_path, symmetric_instance):
    """An aliased agent label "01.1" or an unknown agent in a start profile
    and a numeric link id in an instance file are unreadable input: each
    prints the error document and exits 2, where each ran to exit 0 when
    the readers coerced labels and ids with int() and str(). So is a key
    repeated in one JSON object of either file (a second "y" or
    "capacity"), which json.loads alone reads as the last."""
    procs = []
    for extra in ("01.1", "9.9"):
        start = _write_profile(tmp_path / f"start{extra}.json", {
            "1.1": {"y": 2.0, "q": {"l1": [0.1, 0.1]}},
            "2.1": {"y": 7.0, "q": {"l1": [0.3, 0.2]}},
            extra: {"y": 9.0, "q": {"l1": [0.3, 0.2]}},
        })
        procs.append(run_cli("dynamics", "--instance", sym_path, "--start", start,
                             "--rounds", "1", "--out", str(tmp_path / f"o{extra}")))
    doc = json.loads(instance_to_json(symmetric_instance))
    doc["links"][0]["id"] = 1
    for agent in doc["agents"]:
        agent["route"][0]["link"] = 1
    bad = tmp_path / "numeric_link.json"
    bad.write_text(json.dumps(doc))
    procs.append(run_cli("solve", "--instance", str(bad), "--out", str(tmp_path / "o3")))
    start = tmp_path / "two_demands.json"
    start.write_text('{"1.1": {"y": 2.0, "y": 9.0, "q": {"l1": [0.1, 0.1]}}, '
                     '"2.1": {"y": 7.0, "q": {"l1": [0.3, 0.2]}}}')
    procs.append(run_cli("dynamics", "--instance", sym_path, "--start", str(start),
                         "--rounds", "1", "--out", str(tmp_path / "o4")))
    bad = tmp_path / "two_capacities.json"
    bad.write_text(instance_to_json(symmetric_instance).replace(
        '"capacity": ', '"capacity": 99.0, "capacity": ', 1))
    procs.append(run_cli("solve", "--instance", str(bad), "--out", str(tmp_path / "o5")))
    for proc in procs:
        assert proc.returncode == 2, proc.stderr + proc.stdout
        assert error_doc(proc)["kind"] == "input"


def test_dynamics_from_demands_lost_to_weighting(tmp_path):
    """Demands of 5e-324 under weights 0.4 leave both groups' weighted
    peaks at 0: no group demands, so the link offers no bound."""
    inst = make_instance({"l1": 10.0}, [(1, 1, LOG_SAT, 1.0, 1.0, {"l1": 0.4}),
                                        (2, 1, LOG_SAT, 1.0, 1.0, {"l1": 0.4})])
    inst_path = tmp_path / "tiny.json"
    inst_path.write_text(instance_to_json(inst))
    start = _write_profile(tmp_path / "start.json", {
        ki.label: {"y": 5e-324, "q": {"l1": [0.1, 0.1]}} for ki in inst.agents})
    proc = run_cli("dynamics", "--instance", str(inst_path), "--start", start,
                   "--rounds", "2", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr + proc.stdout


# ---------------------------------------------------------------------------
# argparse surface


def test_unknown_variant_exits_2(tmp_path, sym_path):
    proc = run_cli("certify", "--instance", sym_path, "--variant", "xxl", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_missing_subcommand_exits_2():
    assert run_cli().returncode == 2


def test_bad_seed_range_exits_2(tmp_path):
    proc = run_cli("certify", "--seeds", "5..1", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("solve", "--seed", "-1"),
    ("dynamics", "--rounds", "0"),
    ("dynamics", "--budget", "-3"),
    ("certify", "--budget", "0"),
    ("certify", "--seeds", "1", "--sweep-groups", "1"),
    ("certify", "--seeds", "1", "--sweep-members", "0"),
    ("certify", "--seeds", "1", "--sweep-links", "0"),
    ("certify", "--seeds", "1", "--sweep-links", "two"),
    ("certify", "--seeds", "-3"),
    ("certify", "--seeds", "0,-1"),
])
def test_out_of_range_integer_exits_2(tmp_path, sym_path, args):
    if "--seeds" not in args:
        args = args + ("--instance", sym_path)
    proc = run_cli(*args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("certify", "--eta", "inf"),
    ("certify", "--zeta", "inf", "--variant", "sbb"),
    ("certify", "--tol", "inf"),
    ("certify", "--epsilon", "inf"),
    ("certify", "--lemma-tol", "inf"),
    ("dynamics", "--xi", "nan"),
    ("certify", "--seeds", "1", "--sweep-density", "nan"),
    ("certify", "--seeds", "1", "--sweep-density", "0"),
    ("certify", "--seeds", "1", "--sweep-density", "1.5"),
])
def test_out_of_range_float_exits_2(tmp_path, sym_path, args):
    if "--seeds" not in args:
        args = args + ("--instance", sym_path)
    proc = run_cli(*args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--tol", "1e-10", "--seed", "3", "--require-a4"),
    ("certify", "--eta", "0.005", "--budget", "600", "--lemma-tol", "1e-7"),
    ("certify", "--seeds", "1..2", "--sweep-groups", "2", "--sweep-links", "2",
     "--epsilon", "1e-5"),
    ("dynamics", "--start", "zero", "--rounds", "2", "--xi", "0.02"),
])
def test_manifest_echoes_every_parsed_option(tmp_path, sym_path, argv):
    """manifest.json's config is every option the command parsed, with its
    parsed value (defaults included), for each kind of run."""
    if "--seeds" not in argv:
        argv += ("--instance", sym_path)
    argv += ("--out", str(tmp_path / "o"))
    proc = run_cli(*argv)
    assert proc.returncode in (0, 5), proc.stderr + proc.stdout
    parsed = vars(build_parser().parse_args(argv))
    del parsed["command"], parsed["func"]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"] == parsed
