"""Self-test of the benchmark at tiny sizes.

Every check passes on the program's outputs, and a deliberately perturbed
output fails the check it targets, so no check is vacuous.  Run with

    python -m pytest benchmark
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def flagged(problems: list[str], name: str) -> bool:
    return any(p.startswith(name + ":") for p in problems)


# ---------------------------------------------------------------------------
# boundary ledger: one eps sweep at N = 4
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ledger():
    w = workloads.BoundarySweep(0, None)
    w.cases = w.cases[:1]
    rows = w.rows(w.run(None), 4)
    assert len(rows) == 3
    return w, rows


def _tilt(rows, key, power):
    """Multiply ``key`` by eps**power: shifts its log-log slope by power."""
    for r in rows:
        r[key] = r[key] * r["eps"] ** power if key != "far_masses" else [
            m * r["eps"] ** power for m in r[key]]


def _scale_last(key, factor):
    def perturb(rows):
        rows[-1][key] *= factor
    return perturb


def _lower_last_margin(rows):
    threshold = checks.threshold_level(4, 1.0, boundary=True)
    rows[-1]["peak"] = threshold - 0.5 * (threshold - rows[-1]["peak"])


def _cross_threshold(rows):
    rows[0]["peak"] = 2.0 * checks.threshold_level(4, 1.0, boundary=True)


LEDGER_PERTURBATIONS = {
    "half_space_grad": _scale_last("grad_energy", 1.01),
    "half_space_mass": _scale_last("near_mass", 1.01),
    "sliver_mass_coefficient": _scale_last("sliver_mass", 1.01),
    "sliver_energy_coefficient": _scale_last("sliver_energy", 1.01),
    "sliver_ratio": _scale_last("sliver_energy", 1.01),
    "sliver_energy_slope": lambda rows: _tilt(rows, "sliver_energy", 0.05),
    "sliver_mass_slope": lambda rows: _tilt(rows, "sliver_mass", 0.05),
    "far_mass_slope": lambda rows: _tilt(rows, "far_masses", 0.05),
    "ray_peak": _scale_last("peak", 1.0 + 1e-6),
    "margin_positive": _cross_threshold,
    "margin_increasing": _lower_last_margin,
}


def test_ledger_checks_pass(ledger):
    w, rows = ledger
    assert checks.boundary_sweep(4, 1.0, workloads.RAY_LAMBDA, 3.0, w.far, rows) == []


@pytest.mark.parametrize("name", sorted(LEDGER_PERTURBATIONS))
def test_ledger_check_catches(ledger, name):
    w, rows = ledger
    rows = [dict(r, far_masses=list(r["far_masses"])) for r in rows]
    LEDGER_PERTURBATIONS[name](rows)
    assert flagged(checks.boundary_sweep(4, 1.0, workloads.RAY_LAMBDA, 3.0, w.far, rows), name)


# ---------------------------------------------------------------------------
# solver: lambda = 5, interior pair, on 16^3 and 20^3 (both converge)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solves():
    w = workloads.SolveNonconst(0, None)
    w.configs = [w.config(n, 5.0, workloads.INTERIOR_PAIR) for n in (16, 20)]
    outputs = w.run(None)
    assert w.failed(outputs) == 0
    return w, outputs


def _case(solves):
    _, outputs = solves
    cfg, report, u = outputs[0]
    return workloads.solve_case(cfg, u.copy(), {k: getattr(report, k) for k in workloads.REPORT_KEYS})


def _dent(case):
    case["u"][3, 3, 3] = -1e-3


SOLVE_PERTURBATIONS = {
    "positive": _dent,
    "nehari": lambda case: case.update(u=1.001 * case["u"]),
    "energy": lambda case: case.update(energy=case["energy"] * (1.0 + 1e-6)),
    "residual": lambda case: case.update(residual=2.0 * case["grad_tol"]),
    "constant_path": lambda case: case.update(energy=2.0 * checks.constant_path_max(case)),
    "threshold": lambda case: case.update(threshold=2.0 * case["threshold"]),
}


def test_solve_checks_pass(solves):
    w, outputs = solves
    assert w.check(outputs) == []


@pytest.mark.parametrize("name", sorted(SOLVE_PERTURBATIONS))
def test_solve_check_catches(solves, name):
    case = _case(solves)
    SOLVE_PERTURBATIONS[name](case)
    assert flagged(checks.solve(case), name)


def test_grid_agreement_catches(solves):
    _, outputs = solves
    energies = [report.energy for _, report, _ in outputs]
    assert checks.grid_agreement({"pair": energies}) == []
    assert flagged(checks.grid_agreement({"pair": [energies[0], 1.05 * energies[0]]}), "grid_agreement")


def test_unconverged_solve_counts_as_failed(solves):
    w, outputs = solves
    cfg, report, u = outputs[0]
    stalled = workloads.variational.SolveReport(**{**report.__dict__, "converged": False})
    assert w.failed([(cfg, stalled, u)]) == 1
    assert w.check([(cfg, stalled, -u)]) == []  # failed operations are not checked


# ---------------------------------------------------------------------------
# CLI stream: one round of small calls
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    w = workloads.SmallCalls(0, tmp_path_factory.mktemp("small"))
    w.setup()
    outputs = w.run(w.prepare())
    assert w.failed(outputs) == 0
    return w, outputs


def _rewrite(outputs, command, edit):
    """Apply ``edit`` to the rows of the first ``command`` CSV of the round."""
    path = next(out[2] for out in outputs if out[0] == command)
    rows = checks.read_csv(path)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _scale(kind, key, factor, row=0):
    def edit(rows):
        selected = [r for r in rows if kind is None or r["kind"] == kind]
        selected[row][key] = repr(float(selected[row][key]) * factor)
    return edit


def _set(kind, key, value):
    def edit(rows):
        next(r for r in rows if r["kind"] == kind)[key] = value
    return edit


def _grow_ratio(rows):
    energy = [r for r in rows if r["kind"] == "energy"]
    energy[-1]["sliver_mass"] = repr(2.0 * float(energy[0]["sliver_mass"]))


CLI_PERTURBATIONS = {
    "constants_closed_form": ("constants", _scale(None, "best_constant", 1.0 + 1e-6)),
    "recurrence": ("identities", _set("recurrence", "rel_diff", "1e-07")),
    "recurrence_closed_form": ("identities", _scale("recurrence", "lhs", 1.0 + 1e-6)),
    "ratios": ("identities", _scale("ratios", "moment_ratio", 1.0 + 1e-6)),
    "boundary_margin": ("boundary", _scale("energy", "margin", 1.001)),
    "sliver_ratio": ("boundary", _grow_ratio),
    "boundary_slope_row": ("boundary", _scale("slope", "sliver_energy", 1.01)),
    "half_space_grad": ("boundary", _scale("energy", "grad_energy", 1.2, row=-1)),
    "near_constant": ("solve", _scale(None, "energy", 1.01)),
    "sweep_closed_form": ("sweep-lambda", _scale(None, "lambda_bound", 1.001)),
}


def test_cli_checks_pass(small_round):
    w, outputs = small_round
    assert w.check(outputs) == []


@pytest.mark.parametrize("name", sorted(CLI_PERTURBATIONS))
def test_cli_check_catches(tmp_path, name):
    w = workloads.SmallCalls(0, tmp_path)
    w.setup()
    outputs = w.run(w.prepare())
    command, edit = CLI_PERTURBATIONS[name]
    _rewrite(outputs, command, edit)
    assert flagged(w.check(outputs), name)


def test_nonzero_exit_counts_as_failed(tmp_path):
    w = workloads.SmallCalls(0, tmp_path)
    w.setup()
    calls = [c for c in w.prepare() if c[0] == "boundary"]
    calls[0][1]["params"]["N"] = 6  # no default tensor resolution at N >= 6
    calls[0][1]["geometry"]["curvatures"] = [1.0] * 5
    with open(calls[0][2], "w", encoding="utf-8") as fh:
        yaml.safe_dump(calls[0][1], fh)
    outputs = w.run(calls)
    assert w.failed(outputs) == 1


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------


def _bench(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _run(cwd, *extra):
    return subprocess.run([sys.executable, "benchmark/run.py", "--workload", "small-calls",
                           "--seed", "3", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric(trace, key):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(workloads.SmallCalls.mix) == 0
    assert sorted(result["metrics"]) == sorted(_bench(key))
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_trace_names_match_layer_metrics():
    assert sorted(tracing.layer_metrics([], [])) == sorted(_bench("per_layer"))


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_layer_self_times():
    spans = [
        ("bench.round", 0.0, 10.0, -1, None),
        ("boundary_energy.bubble_energies", 1.0, 9.0, 0, None),
        ("quadrature.adaptive_gauss_kronrod", 2.0, 5.0, 1, None),
        ("quadrature.integrand", 3.0, 4.0, 2, None),
        ("variational.mountain_pass_solve", 9.0, 10.0, 0, 2),
        ("variational.nehari_scale", 9.1, 9.2, 4, None),
        ("variational.nehari_scale", 9.3, 9.4, 4, None),
        ("variational.nehari_scale", 9.5, 9.6, 4, None),
        ("variational.nehari_scale", 9.7, 9.8, 4, None),
    ]
    m = tracing.layer_metrics(spans, [0])
    assert m["boundary_energy.self_s"] == pytest.approx(5.0)
    assert m["quadrature.gk_self_s"] == pytest.approx(2.0)
    assert m["variational.backtracks"] == 1
    assert m["variational.solve_self_s"] == pytest.approx(0.6)
    assert np.isclose(m["quadrature.integrand_s"], 1.0)
