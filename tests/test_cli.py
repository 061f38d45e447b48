"""Command-line interface: configs, CSV outputs, determinism, exit codes."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hslab import cli
from hslab.boundary_energy import BoundaryGeometry, CutoffSpec
from hslab.cli import ConfigError, load_config, main
from hslab.extremals import HSParams
from hslab.identities import lambda_existence_bound
from hslab.variational import (
    DomainGrid, ProblemConfig, Singularity, load_field, mountain_pass_solve, node_volumes,
    singular_weight,
)

from oracles import threshold_inequality_check


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


CONSTANTS_CFG = """
params:
  N_list: [3, 4]
  s_list: [1.0]
"""

IDENTITIES_CFG = """
params:
  N: 3
  s: 1.0
beta_list: [2.0, 3.0]
"""

BOUNDARY_CFG = """
params:
  N: 4
  s: 1.0
geometry:
  curvatures: [1.0, 1.0, 1.0]
  delta: 0.1
lambda: 1.0
eps_list: [1.0e-4, 5.0e-5]
"""

SOLVE_CFG = """
grid:
  bounds: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
  nodes: [12, 12, 12]
lambda: 0.01
singularities:
  - location: [0.5, 0.5, 0.5]
    s: 1.0
solver:
  grad_tol: 1.0e-6
init:
  type: constant
  value: 1.0
"""

SWEEP_CFG = """
grid:
  bounds: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
  nodes: [10, 10, 10]
lambda_list: [0.005, 0.02]
singularities:
  - location: [0.5, 0.5, 0.5]
    s: 1.0
solver:
  grad_tol: 1.0e-6
init:
  type: constant
  value: 1.0
"""

MIXED_SWEEP_CFG = """
grid:
  bounds: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
  nodes: [12, 12, 12]
lambda_list: [0.005, 0.02]
singularities:
  - location: [0.3, 0.5, 0.5]
    s: 0.5
  - location: [0.7, 0.5, 0.5]
    s: 1.2
solver:
  grad_tol: 1.0e-6
init:
  type: constant
  value: 1.0
"""

CORNER_SWEEP_CFG = """
grid:
  bounds: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
  nodes: [16, 16, 16]
lambda_list: [0.01]
singularities:
  - location: [0.0, 0.0, 0.0]
    s: 1.0
  - location: [0.7, 0.5, 0.5]
    s: 1.0
"""


QUADRATURE_CFGS = {"constants": CONSTANTS_CFG, "identities": IDENTITIES_CFG,
                   "boundary": BOUNDARY_CFG}


class TestFlagsAreConfigKeys:
    @pytest.mark.parametrize("command", sorted(QUADRATURE_CFGS))
    def test_tol_key_and_flag_write_the_same_bytes(self, tmp_path, command):
        text = QUADRATURE_CFGS[command]
        by_key, by_flag = tmp_path / "key.csv", tmp_path / "flag.csv"
        keyed = write_config(tmp_path, text + "tol: 1.0e-8\n", "key.yaml")
        assert main([command, "--config", keyed, "--out", str(by_key)]) == 0
        plain = write_config(tmp_path, text, "plain.yaml")
        assert main([command, "--config", plain, "--out", str(by_flag), "--tol", "1e-8"]) == 0
        assert by_key.read_bytes() == by_flag.read_bytes()

    def test_empty_out_flag_keeps_the_config_output(self, tmp_path):
        out = tmp_path / "from-config.csv"
        cfg = write_config(tmp_path, CONSTANTS_CFG + f"output: {out}\n")
        assert main(["constants", "--config", cfg, "--out", ""]) == 0
        assert len(read_csv(out)) == 3

    def test_seed_key_and_flag_give_the_same_solve(self, tmp_path):
        text = SOLVE_CFG.replace("type: constant\n  value: 1.0", "type: random")
        by_key, by_flag = tmp_path / "key.csv", tmp_path / "flag.csv"
        keyed = write_config(tmp_path, text + "seed: 11\n", "key.yaml")
        assert main(["solve", "--config", keyed, "--out", str(by_key)]) == 0
        plain = write_config(tmp_path, text, "plain.yaml")
        assert main(["solve", "--config", plain, "--out", str(by_flag), "--seed", "11"]) == 0
        assert by_key.read_bytes() == by_flag.read_bytes()


class TestConstantsCommand:
    def test_values_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANTS_CFG)
        out = str(tmp_path / "constants.csv")
        assert main(["constants", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == [
            "n", "s", "grad_energy", "weighted_mass", "best_constant",
            "interior_threshold", "boundary_threshold",
        ]
        first = dict(zip(rows[0], rows[1]))
        assert first["n"] == "3"
        assert float(first["grad_energy"]) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-9
        )
        assert float(first["weighted_mass"]) == pytest.approx(
            2.0 * math.pi / 3.0, rel=1e-9
        )
        assert float(first["best_constant"]) == pytest.approx(
            math.sqrt(8.0 * math.pi / 3.0), rel=1e-9
        )
        assert float(first["interior_threshold"]) == pytest.approx(
            2.0 * math.pi / 3.0, rel=1e-9
        )
        assert float(first["boundary_threshold"]) == pytest.approx(
            math.pi / 3.0, rel=1e-9
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANTS_CFG)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["constants", "--config", cfg, "--out", a]) == 0
        assert main(["constants", "--config", cfg, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestIdentitiesCommand:
    def test_recurrence_rows(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITIES_CFG)
        out = str(tmp_path / "identities.csv")
        assert main(["identities", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        header = rows[0]
        recs = [dict(zip(header, r)) for r in rows[1:] if r[0] == "recurrence"]
        assert len(recs) == 2
        for rec in recs:
            assert float(rec["rel_diff"]) < 1e-10
            assert float(rec["lhs"]) == pytest.approx(float(rec["rhs"]), rel=1e-9)
        ratios = [dict(zip(header, r)) for r in rows[1:] if r[0] == "ratios"]
        assert len(ratios) == 1
        assert float(ratios[0]["sliver_ratio_limit"]) == 0.0
        assert float(ratios[0]["moment_ratio"]) == pytest.approx(1.0, rel=1e-9)
        assert float(ratios[0]["strict_gap"]) > 0.0

    def test_out_of_range_beta_fails_alone(self, tmp_path, capsys):
        # the stacked run refuses the list; each beta is then redone alone
        cfg = write_config(tmp_path, IDENTITIES_CFG.replace("[2.0, 3.0]", "[2.0, 99.0, 3.0]"))
        out = str(tmp_path / "identities.csv")
        assert main(["identities", "--config", cfg, "--out", out]) == 1
        rows = read_csv(out)[1:]
        assert [(r[0], r[3]) for r in rows] == [
            ("recurrence", "2"), ("recurrence", "3"), ("ratios", "")]
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("failed: ")]
        assert len(failed) == 1
        assert failed[0].startswith("failed: identities(N=3, s=1.0, beta=99.0): ")


    def test_empty_default_beta_range_writes_the_ratios_row_only(self, tmp_path):
        # at N = 3, s = 1.6 the recurrence range [2, 2(N - s) - 1] is empty
        cfg = write_config(tmp_path, "params:\n  N: 3\n  s: 1.6\n")
        out = str(tmp_path / "identities.csv")
        assert main(["identities", "--config", cfg, "--out", out]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == ["ratios"]
        # an explicit beta is still checked against that range
        cfg = write_config(tmp_path, "params:\n  N: 3\n  s: 1.6\nbeta_list: [2.0]\n")
        assert main(["identities", "--config", cfg, "--out", out]) == 1


UNDERFLOWING = "params:\n  N: 5\n  s: 1.995\n"
UNDERFLOW = "radial moments below the smallest normal float: (a="


class TestUnderflowingMoments:
    def test_constants_failure_names_the_members(self, tmp_path, capsys):
        out = str(tmp_path / "constants.csv")
        assert main(["constants", "--config", write_config(tmp_path, UNDERFLOWING),
                     "--out", out]) == 1
        assert len(read_csv(out)) == 1
        (failed,) = capsys.readouterr().err.splitlines()
        assert failed.startswith(f"failed: constants(N=5, s=1.995): {UNDERFLOW}2.01, ")

    def test_identities_keep_the_rows_above_the_underflow(self, tmp_path, capsys):
        out = str(tmp_path / "identities.csv")
        assert main(["identities", "--config", write_config(tmp_path, UNDERFLOWING),
                     "--out", out]) == 1
        rows = read_csv(out)[1:]
        assert [(r[0], float(r[3])) for r in rows] == [("recurrence", 2.0),
                                                       ("recurrence", 2.602)]
        assert all(float(r[6]) < 1e-13 for r in rows)
        failed = capsys.readouterr().err.splitlines()
        assert len(failed) == 5 and all(UNDERFLOW in line for line in failed)
        assert failed[-1].startswith("failed: identities ratios(N=5, s=1.995): ")


class TestBoundaryCommand:
    def test_rows_and_slope_summary(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDARY_CFG)
        out = str(tmp_path / "boundary.csv")
        assert main(["boundary", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        header = rows[0]
        assert header[0] == "kind"
        eps_rows = [dict(zip(header, r)) for r in rows[1:] if r[0] == "energy"]
        assert [float(r["eps"]) for r in eps_rows] == [1e-4, 5e-5]
        for rec in eps_rows:
            assert float(rec["grad_energy"]) > 0.0
            assert float(rec["sliver_energy"]) > 0.0
            assert float(rec["margin"]) > 0.0
        slope = [dict(zip(header, r)) for r in rows[1:] if r[0] == "slope"]
        assert len(slope) == 1
        # pure sliver integrals shrink at the concentration-scale rate
        assert float(slope[0]["sliver_energy"]) == pytest.approx(1.0, abs=0.1)
        assert float(slope[0]["sliver_mass"]) == pytest.approx(1.0, abs=0.1)

    def test_margins_match_threshold_inequality_check(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDARY_CFG)
        out = str(tmp_path / "boundary.csv")
        assert main(["boundary", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        eps_rows = [dict(zip(rows[0], r)) for r in rows[1:] if r[0] == "energy"]
        report = threshold_inequality_check(
            [1e-4, 5e-5], BoundaryGeometry((1.0, 1.0, 1.0), 0.1), CutoffSpec(0.1),
            [], 1.0, HSParams(4, 1.0))
        for rec, row in zip(eps_rows, report.rows):
            for key in ("eps", "peak", "margin", "scaled_margin"):
                assert float(rec[key]) == getattr(row, key)

    def test_failed_eps_is_itemized_and_skipped(self, tmp_path, capsys):
        # eps = 0.5 gives eps**(1/(2-s)) = 0.5 > delta/10: EpsTooLarge
        cfg = write_config(tmp_path, BOUNDARY_CFG.replace(
            "[1.0e-4, 5.0e-5]", "[1.0e-4, 0.5, 5.0e-5]"))
        out = str(tmp_path / "boundary.csv")
        assert main(["boundary", "--config", cfg, "--out", out]) == 1
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["energy", "energy", "slope"]
        assert [float(r[1]) for r in rows[1:3]] == [1e-4, 5e-5]
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("failed: ")]
        assert len(failed) == 1
        assert failed[0].startswith("failed: boundary(eps=0.5): ")
        assert "exceeds delta/10" in failed[0]


    def test_failed_ray_peak_is_itemized(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOUNDARY_CFG.replace("lambda: 1.0", "lambda: .inf"))
        assert main(["boundary", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("failed: ")]
        assert len(failed) == 2 and all("ray inputs must be finite" in f for f in failed)


class TestSolveCommand:
    def test_solve_writes_csv_and_snapshot(self, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CFG)
        out = str(tmp_path / "solve.csv")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        rec = dict(zip(rows[0], rows[1]))
        assert rec["converged"] == "true"
        assert rec["below_threshold"] == "true"
        assert float(rec["residual_sup"]) < 1e-6
        assert float(rec["min_value"]) > 0.0
        grid, values = load_field(out + ".field")
        assert grid.shape == (12, 12, 12)
        assert float(values.min()) > 0.0

    def test_explicit_field_output_path(self, tmp_path):
        snap = str(tmp_path / "ground.field")
        cfg = write_config(tmp_path, SOLVE_CFG + f"field_output: {snap}\n")
        out = str(tmp_path / "solve.csv")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        grid, _ = load_field(snap)
        assert grid.N == 3

    def test_random_init_respects_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SOLVE_CFG.replace("type: constant\n  value: 1.0", "type: random"),
        )
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["solve", "--config", cfg, "--out", a, "--seed", "11"]) == 0
        assert main(["solve", "--config", cfg, "--out", b, "--seed", "11"]) == 0
        assert main(["solve", "--config", cfg, "--out", c, "--seed", "12"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        # different seeds still reach the same ground state energy
        ra = dict(zip(*read_csv(a)[:2]))
        rc = dict(zip(*read_csv(c)[:2]))
        assert float(ra["energy"]) == pytest.approx(float(rc["energy"]), rel=1e-5)


class TestSweepLambdaCommand:
    def test_sweep_rows(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-lambda", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        header = rows[0]
        recs = [dict(zip(header, r)) for r in rows[1:]]
        assert [float(r["lam"]) for r in recs] == [0.005, 0.02]
        for rec in recs:
            assert float(rec["constant_path_max"]) > 0.0
            assert float(rec["lambda_bound"]) > 0.0
            assert rec["below_threshold"] == "true"
            # the solver never does worse than the constant path
            assert float(rec["solver_energy"]) <= float(
                rec["constant_path_max"]
            ) * (1.0 + 1e-9)

    def test_mixed_exponents(self, tmp_path):
        cfg = write_config(tmp_path, MIXED_SWEEP_CFG)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-lambda", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        recs = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [float(r["lam"]) for r in recs] == [0.005, 0.02]
        for rec in recs:
            # a geometric bisection on lambda to 1e-10 relative gives this value
            assert float(rec["lambda_bound"]) == pytest.approx(4.9628582886753492, rel=1e-9)
            assert rec["converged"] == "true"
            assert float(rec["solver_energy"]) <= float(rec["constant_path_max"])

    def test_corner_site_level(self, tmp_path):
        cfg = write_config(tmp_path, CORNER_SWEEP_CFG)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-lambda", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        (rec,) = [dict(zip(rows[0], r)) for r in rows[1:]]
        # a corner keeps 1/8 of a ball: 1/8 of the interior level 2 pi/3
        assert float(rec["threshold"]) == pytest.approx(2.0 * math.pi / 3.0 / 8.0, rel=1e-12)
        # with the one exponent q = 4 the bound goes as threshold**(1/2), so
        # it is half the bound at the face level, 4 times the corner's
        grid = DomainGrid(((0.0, 1.0),) * 3, (16,) * 3)
        masses = [float((singular_weight(grid, Singularity(x, 1.0)) * node_volumes(grid)).sum())
                  for x in ((0.0, 0.0, 0.0), (0.7, 0.5, 0.5))]
        face_bound = lambda_existence_bound(grid.volume, masses, [4.0, 4.0], math.pi / 3.0)
        assert float(rec["lambda_bound"]) == pytest.approx(0.5 * face_bound, rel=1e-12)
        assert float(rec["lambda_bound"]) == pytest.approx(1.9081211875356696, rel=1e-9)
        assert rec["below_threshold"] == "true"

    def test_threshold_column_is_each_solves_threshold(self, tmp_path):
        cfg = write_config(tmp_path, MIXED_SWEEP_CFG)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-lambda", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        grid = DomainGrid(((0.0, 1.0),) * 3, (12,) * 3)
        sites = (Singularity((0.3, 0.5, 0.5), 0.5), Singularity((0.7, 0.5, 0.5), 1.2))
        for row in rows[1:]:
            rec = dict(zip(rows[0], row))
            problem = ProblemConfig(grid, float(rec["lam"]), sites)
            report, _ = mountain_pass_solve(problem, np.ones(grid.shape))
            assert float(rec["threshold"]) == report.threshold
            assert rec["below_threshold"] == ("true" if report.below_threshold else "false")

    def test_nonpositive_lambda_is_itemized_failure(self, tmp_path):
        cfg = write_config(
            tmp_path, SWEEP_CFG.replace("[0.005, 0.02]", "[0.005, -1.0]")
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-lambda", "--config", cfg, "--out", out]) == 1
        rows = read_csv(out)
        assert len(rows) == 2  # header + the one lambda that succeeded


PLANE_SWEEP_CFG = """
grid:
  bounds: [[0.0, 1.0], [0.0, 1.0]]
  nodes: [10, 10]
lambda_list: [0.01]
singularities:
  - location: [0.5, 0.5]
    s: 1.0
"""

PLANE_SOLVE_CFG = PLANE_SWEEP_CFG.replace("lambda_list: [0.01]", "lambda: 0.01")

CONSTANT_INIT = "  type: constant\n  value: 1.0\n"


def far_sites(*distances):
    """A far_sites block with one s = 1 site at each distance (YAML scalars)."""
    return "far_sites:\n" + "".join(f"  - distance: {d}\n    s: 1.0\n" for d in distances)


# (command, config, a key the message must name)
FAULTY_CONFIGS = {
    "scalar_N_list": ("constants", "params:\n  N_list: 3\n  s: 1.0\n", "params.N_list"),
    "empty_N_list": ("constants", "params:\n  N_list: []\n  s: 1.0\n", "params.N_list"),
    "short_site": ("sweep-lambda", SWEEP_CFG.replace("[0.5, 0.5, 0.5]", "[0.5, 0.5]"),
                   "singularities"),
    "plane_grid": ("sweep-lambda", PLANE_SWEEP_CFG, "grid"),
    "bogus_init": ("sweep-lambda", SWEEP_CFG.replace("type: constant", "type: bogus"),
                   "init.type"),
    "empty_far_sites": ("boundary", BOUNDARY_CFG + "far_sites: []\n", "far_sites"),
    # delta is 0.1, so a far site needs distance >= 0.3
    "far_site_too_close": ("boundary", BOUNDARY_CFG + far_sites("0.5", "0.1"), "far_sites[1]"),
    "far_site_nan": ("boundary", BOUNDARY_CFG + far_sites(".nan"), "far_sites[0]"),
    "tol_nan": ("constants", CONSTANTS_CFG + "tol: .nan\n", "tol"),
    "tol_one": ("boundary", BOUNDARY_CFG + "tol: 1.0\n", "tol"),
    # solve's tolerance is solver.grad_tol, so a tol there is an error, not ignored
    "tol_solve": ("solve", SOLVE_CFG + "tol: .nan\n", "tol"),
    "infinite_lambda": ("sweep-lambda", SWEEP_CFG.replace("[0.005, 0.02]", "[0.005, .inf]"),
                        "lambda_list"),
    "plane_solve": ("solve", PLANE_SOLVE_CFG, "grid"),
    "curvature_count": ("boundary", BOUNDARY_CFG.replace("[1.0, 1.0, 1.0]", "[1.0, 1.0]"),
                        "geometry.curvatures"),
    "init_site_solve": ("solve", SOLVE_CFG.replace(CONSTANT_INIT, "  site: 3\n"), "init: site"),
    "init_site_sweep": ("sweep-lambda", SWEEP_CFG.replace(CONSTANT_INIT, "  site: 3\n"),
                        "init: site"),
    "init_eps": ("solve", SOLVE_CFG.replace(CONSTANT_INIT, "  type: bubble\n  eps: -1.0\n"),
                 "init: eps"),
    "init_value_negative": ("solve", SOLVE_CFG.replace("value: 1.0", "value: -1.0"),
                            "init.value"),
    "init_value_infinite": ("solve", SOLVE_CFG.replace("value: 1.0", "value: .inf"),
                            "init.value"),
    "random_init_value_negative": (
        "sweep-lambda",
        SWEEP_CFG.replace(CONSTANT_INIT, "  type: random\n  value: -1.0\n"), "init.value"),
}


class TestConfigErrors:
    @pytest.mark.parametrize("case", sorted(FAULTY_CONFIGS))
    def test_faulty_config_exits_2_naming_the_key(self, tmp_path, capsys, case):
        command, text, key = FAULTY_CONFIGS[case]
        out = tmp_path / "x.csv"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "1.5", "-1e-3"])
    @pytest.mark.parametrize("command", ["constants", "identities", "boundary"])
    def test_quadrature_tol_flag_out_of_range_exits_2(self, tmp_path, capsys, command, tol):
        text = QUADRATURE_CFGS[command]
        out = tmp_path / "x.csv"
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                     f"--tol={tol}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tol: rel_tol must lie in (0, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("route", ["key", "flag"])
    @pytest.mark.parametrize("command", ["solve", "sweep-lambda"])
    def test_solver_commands_reject_tol(self, tmp_path, capsys, command, route):
        # their one tolerance is solver.grad_tol, however tol would reach them
        text = {"solve": SOLVE_CFG, "sweep-lambda": SWEEP_CFG}[command]
        out = tmp_path / "x.csv"
        argv = [command, "--out", str(out)]
        if route == "key":
            text += "tol: 1.0e-3\n"
        else:
            argv.append("--tol=1e-3")
        assert main([*argv, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "error: tol: solve and sweep-lambda take no tol; "
            "their tolerance is solver.grad_tol\n")
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1e-3", "-1.0e-3"])
    def test_negative_tol_as_its_own_word_reaches_the_range_check(self, tmp_path, capsys, tol):
        # argparse alone reads -1e-3 after --tol as an option and stops on
        # "expected one argument"
        out = tmp_path / "x.csv"
        code = main(["boundary", "--config", write_config(tmp_path, BOUNDARY_CFG),
                     "--tol", tol, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tol: rel_tol must lie in (0, 1)")
        assert not out.exists()

    def test_far_site_at_three_delta_is_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, BOUNDARY_CFG + far_sites("0.3"))
        assert main(["boundary", "--config", cfg, "--out", str(out)]) == 0
        assert all(float(row[5]) > 0.0 for row in read_csv(out)[1:] if row[0] == "energy")

    def test_wrong_types_report_every_dotted_path(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("s: 1.0", "s: one").replace("[10, 10, 10]", "[10, ten, 10]")
        assert main(["sweep-lambda", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "singularities[0].s: expected a number, got 'one'" in err
        assert "grid.nodes[1]: expected an integer, got 'ten'" in err

    def test_exponent_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, "params:\n  N: 3\n  s: 2.5\n")
        assert main(["constants", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_key_reports_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BOUNDARY_CFG + "geometry_typo: 1\n",
        )
        code = main(["boundary", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown key: geometry_typo" in capsys.readouterr().err

    def test_nested_unknown_key_reports_dotted_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "params:\n  N: 3\n  s: 1.0\n  weird: 2\n",
        )
        assert main(["constants", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key: params.weird" in capsys.readouterr().err

    def test_c_samples_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CFG + "c_samples: [0.1, 1.0]\n")
        assert main(["sweep-lambda", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key: c_samples" in capsys.readouterr().err

    def test_solver_metric_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CFG.replace(
            "  grad_tol: 1.0e-6\n", "  grad_tol: 1.0e-6\n  metric: h1\n"))
        assert main(["sweep-lambda", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key: solver.metric" in capsys.readouterr().err

    def test_yaml_parse_error_reports_location(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "params:\n  N: 3\n   s: [unclosed\n")
        assert main(["constants", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        # both YAML loaders give this mark; only their wording of the problem differs
        assert "config parse error at line 3, column 5: " in err

    def test_missing_file(self, tmp_path):
        assert main(["constants", "--config",
                     str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")),
        ids=lambda path: path.name)
    def test_shipped_configs_parse_alike_with_the_pure_python_loader(self, path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=cli._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_load_config_raises_for_non_mapping_root(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANTS_CFG)
        out = str(tmp_path / "constants.csv")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hslab.cli", "constants",
             "--config", cfg, "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        rows = read_csv(out)
        assert len(rows) == 3  # header + two (N, s) pairs
