"""Apply named one-line faults to copies of the checkout and print which tests catch each.

    python tests/mutants.py [--jobs N] [NAME ...]

A fault is (name, file, exact old text, new text); the old text must
occur in the file exactly once. For each fault (those named, or all) the
script copies the checkout (``src/``, ``tests/``, ``pyproject.toml`` and
``README.md``) into a temporary directory, applies the fault there and
runs the test suite in the copy. A test catches the fault when it ends
FAILED or ERROR (a fixture that raises errors every test that uses it).
The whole checkout is copied because ``pyproject.toml``'s
``pythonpath = ["src"]`` puts the copy's own ``src/`` ahead of
``PYTHONPATH``: pointing ``PYTHONPATH`` at a mutated ``src/`` alone tests
the unmutated tree and reports every fault as uncaught. The checkout
itself is never written.

For a fault no test catches, the script also runs ``solve_corpus.py``,
``profile_corpus.py`` and ``certify_corpus.py`` in the mutated copy and in
an unmutated one: if all their digests agree, the fault is equivalent on
the corpora (it changes no output there); else it is a missing test.

Per fault it prints the file:line of the fault and the tests that catch
it, by test function (with the count of parametrized cases that fail).
Last it prints each fault that exactly one test function catches: that
test is the reason a reference comparison stays. Runs repeat
(``--hypothesis-seed=0``, one BLAS thread, no pytest cache), and at most
two pytest processes run at once (``--jobs``, default 1). A full run
took 22 minutes with two jobs on a 2-core machine.

The first fault is a sentinel that must be caught; the script exits 1 if
it is not, or if some fault is neither caught nor equivalent. Not
collected by pytest (the name does not start with ``test_``).
"""

import argparse
import collections
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST = ("-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider", "--hypothesis-seed=0")
CORPORA = (("solve_corpus.py",), ("profile_corpus.py", "1"), ("certify_corpus.py",))
MAX_JOBS = 2
TIMEOUT = 1800  # seconds per pytest run; a fault that hangs the suite counts as caught
MECH, EQ, CENT = (f"src/mcastmech/{m}.py" for m in ("mechanism", "equilibrium", "centralized"))
Fault = collections.namedtuple("Fault", "name path old new")


FAULTS = [Fault(*f) for f in (
    ("sentinel: utility adds the taxes", MECH,
     "return self._value(x) - total", "return self._value(x) + total"),
    # allocation, evaluate and validate_profile (evaluate_reference)
    ("_offer drops the lone-group +1", MECH,
     "return capacity / (total + 1.0)", "return capacity / total"),
    ("_peaks_offers counts an idle group as demanding", MECH,
     "if peak > 0.0:  # an idle group's", "if peak >= 0.0:  # an idle group's"),
    ("evaluate's w_bar keeps the own group's w", MECH,
     "wbs[s] = (total - ws[s]) / n_rivals", "wbs[s] = total / n_rivals"),
    ("_link_slots rebate sign flipped", MECH,
     "else -(rho_bar / (n_l - 1)) * others_pay", "else (rho_bar / (n_l - 1)) * others_pay"),
    ("_rebates' rho mean counts the own rho's slot", MECH,
     "n_others = len(rhos) - 1", "n_others = len(rhos)"),
    ("_others_sums adds the later entries forwards", MECH,
     "for i in reversed(index):", "for i in index:"),
    ("validate_profile accepts an infinite demand", MECH,
     "if not (y >= 0.0 and isfinite(y)):", "if not y >= 0.0:"),
    ("validate_profile skips the SBB single-agent link", MECH, "if solo is not None:", "if False:"),
    # the deviation evaluator's pricing layer
    ("_scale sums the peaks in reverse", MECH,
     "offer = _offer(L.capacity, seq_sum(L.peaks),",
     "offer = _offer(L.capacity, seq_sum(L.peaks[::-1]),"),
    ("best_message keeps the incumbent q2", MECH,
     "msg.q[L.lid][1] if L.q1_succ is None else L.q1_succ", "msg.q[L.lid][1]"),
    # the piece form and its readers (finite_diff)
    ("_rate_form's s1 drops -dpeak", MECH, "a_e * fixed / rest - dpeak)", "a_e * fixed / rest)"),
    ("_rate_form's tie rules swapped", MECH,
     "if (above or tie) if side > 0 else (above and not tie):",
     "if (above and not tie) if side > 0 else (above or tie):"),
    ("_rate_form binds the slowest-falling offer on the right", MECH,
     "key=lambda f: side * f[1])", "key=lambda f: -side * f[1])"),
    ("jumps_at_zero never jumps", MECH,
     "return abs(r_lim - r_0) > KINK_TOL * r_lim", "return False"),
    ("rate_model's lin drops the eta term", MECH,
     "L.a * L.pf + eta * L.pf * (k - L.pf) * g1))", "L.a * L.pf))"),
    ("local_model's rho curvature sign flipped", MECH,
     "uxx -= 2.0 * zeta * r_x * r_x", "uxx += 2.0 * zeta * r_x * r_x"),
    ("local_model's y-rho coupling sign flipped", MECH,
     "hess[0, j] = hess[j, 0] = 2.0 * zeta * r_x * dx",
     "hess[0, j] = hess[j, 0] = -2.0 * zeta * r_x * dx"),
    # demand_kinks
    ("demand_kinks keeps a line through the last crossing", MECH,
     "while len(hull) > 1 and cross(hull[-2], f) <= cross(hull[-2], hull[-1]):",
     "while len(hull) > 1 and cross(hull[-2], f) < cross(hull[-2], hull[-1]):"),
    ("demand_kinks' cross negated", MECH,
     "return (c2 * p1 - c1 * p2) / den if den else math.nan",
     "return (c1 * p2 - c2 * p1) / den if den else math.nan"),
    ("demand_kinks' knees drop the lone-group +1", MECH,
     "knees.append(L.base / L.a)", "knees.append(L.rest / L.a)"),
    # the best response (search, grid_reference)
    ("_ZERO_PROBE at 1e-3", EQ, "_ZERO_PROBE = 1e-15", "_ZERO_PROBE = 1e-3"),
    ("_piece ignores val.turn", EQ, "end = min(val.turn(A), xb)", "end = xb"),
    ("_piece moves the crest demand by 1e-7", EQ,
     "cands.append((min(max(y, a), b), h(x)))",
     "cands.append((min(max(y * (1.0 + 1e-7), a), b), h(x)))"),
    ("_piece's g'(a+) drops c*rest/den^2", EQ,
     "return ((a, b, dh(xa) * (c * rest / den_a / den_a),", "return ((a, b, dh(xa),"),
    ("_best_response maps clip roots without a_e*x", EQ,
     "(x * rest / (c - a_e * x) for x in roots", "(x * rest / c for x in roots"),
    ("_best_response merges no clip root with a piece end", EQ,
     "if min(y - lo, hi - y) > KINK_TOL * y})", "if min(y - lo, hi - y) > 0.0})"),
    ("_best_response splits no kink piece at clip roots", EQ,
     "for a, b in zip([lo, *clips], [*clips, hi]):", "for a, b in zip([lo], [hi]):"),
    ("_quadratic's quote free test reversed", EQ,
     "free.append(k - 0.5 * (f0 + f1 * x) > 0.0)", "free.append(k - 0.5 * (f0 + f1 * x) < 0.0)"),
    # construct_ne and lemma_suite (kkt_reference's dict walks)
    ("construct_ne quotes the own dual as q2", EQ,
     "quotes = [(mu, mu if succ < 0 else mus[succ])", "quotes = [(mu, mu)"),
    ("lemma_suite's stationarity ignores the zero-rate threshold", EQ,
     "stat = max(stat, abs(resid) if x > zero else max(0.0, resid))",
     "stat = max(stat, abs(resid))"),
    # the solver (kkt_reference)
    ("no centring floor", CENT, "min(gap, 0.1 * float(np.abs(r_dual).max())))", "0.0)"),
    ("OVERPRICE_MARGIN at 0", CENT, "OVERPRICE_MARGIN = 16 * 2.0 ** -52", "OVERPRICE_MARGIN = 0.0"),
    ("_bound reads the overpricing at negative slack", CENT,
     "if bound > RESIDUAL_FLOOR or not slack.min() >= 0.0:", "if bound > RESIDUAL_FLOOR:"),
    ("_bound reads agents at or below the zero-rate threshold", CENT,
     "over[z[:ws.nx] > ws.thresh]", "over"),
    ("solve_cp measures an iterate without its comp block", CENT,
     "if done and float(done[2][1].max()) <= RESIDUAL_FLOOR:", "if done:"),
    ("_residual's stationarity takes |.| below the threshold", CENT,
     "np.where(x > ws.thresh, np.abs(resid), resid)", "np.abs(resid)"),
    ("check_a4 accepts one demanding group", CENT,
     "all(c >= 2 for c in sizes)", "all(c >= 1 for c in sizes)"),
)]


def checkout(fault=None) -> pathlib.Path:
    """A temporary copy of the checkout with fault applied, if any."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="mutant-"))
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, root / name)
    if fault is not None:
        path = root / fault.path
        path.write_text(path.read_text().replace(fault.old, fault.new))
    return root


def where(fault) -> str:
    """file:line of fault in the checkout; its old text must occur once."""
    text = (ROOT / fault.path).read_text()
    if text.count(fault.old) != 1:
        sys.exit(f"fault {fault.name!r}: old text occurs {text.count(fault.old)} times")
    return f"{fault.path}:{text[:text.index(fault.old)].count(chr(10)) + 1}"


def run(root: pathlib.Path, args) -> str:
    """The stdout of python with args in root, on root's src/ and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT).stdout


def catching(fault):
    """The test ids that end FAILED or ERROR under fault (None: the suite timed out)."""
    root = checkout(fault)
    try:
        out = run(root, PYTEST)
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return sorted({m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", out, re.M)})


def digests(fault=None):
    """The sha256 lines of each corpus script under fault."""
    root = checkout(fault)
    try:
        return [[l for l in run(root, [f"tests/{script}", *args]).splitlines()
                 if "sha256" in l] for script, *args in CORPORA]
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(root, ignore_errors=True)


def by_function(ids):
    """Test ids grouped by function, with the count of failing cases."""
    counts = collections.Counter(i.split("[")[0].removeprefix("tests/") for i in ids)
    return [f"{name} (x{n})" if n > 1 else name for name, n in sorted(counts.items())]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1, choices=range(1, MAX_JOBS + 1))
    parser.add_argument("names", nargs="*", help="faults to run (default: all)")
    opts = parser.parse_args()
    places = {f.name: where(f) for f in FAULTS}
    faults = FAULTS[:1] + [f for f in FAULTS[1:] if not opts.names or f.name in opts.names]
    results = [catching(faults[0])]
    if results[0] == []:
        print("the sentinel fault is not caught: the suite did not test the mutated copy")
        return 1
    with ThreadPoolExecutor(opts.jobs) as pool:
        results += pool.map(catching, faults[1:])
    clean = digests() if [] in results else None
    status, alone = 0, []
    for fault, caught in zip(faults, results):
        row = f"{fault.name} | {places[fault.name]} | "
        if caught is None:
            print(row + "the suite timed out")
        elif caught:
            funcs = by_function(caught)
            print(row + f"{len(caught)} caught: {', '.join(funcs)}")
            if len(funcs) == 1:
                alone.append(f"  {funcs[0]}: {fault.name}")
        elif clean and all(clean) and digests(fault) == clean:
            print(row + "none caught; equivalent: solve, profile and certify digests unchanged")
        else:
            print(row + "none caught, and a corpus digest moves: a missing test")
            status = 1
    print("caught by one test function alone:\n" + ("\n".join(alone) or "  none"))
    return status


if __name__ == "__main__":
    sys.exit(main())
