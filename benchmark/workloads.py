"""The benchmark workloads: inputs from a seed, set-up, one round, checks.

A round is the workload's whole list of operations; every round of a run
attempts the same operations, so the share of failed operations is the same
in every run.  ``prepare`` does the per-round work that is not timed (writing
configs), ``run`` is the timed part, ``check`` verifies a round's outputs and
``failed`` counts the operations of a round that failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from pathlib import Path

import numpy as np
import yaml

import checks
from hslab import boundary_energy, cli, extremals, variational

S_BUBBLE = 1.0
DELTA = 0.1
RAY_LAMBDA = 1.0
GRAD_TOL = 1e-6
# Far above the 124 iterations the slowest solve of these inputs takes; a run
# that stops converging fails its solve instead of outrunning the time limit.
MAX_ITERS = 400
# Drawn s for constants and identities.  Above 1.4 the radial moments at N = 5
# fall to where the quadrature's absolute tolerance, not its relative one,
# ends subdivision (see CHANGES.md), and at N = 3 the recurrence needs
# s <= 1.5 for a nonempty beta range.
S_RANGE = (0.2, 1.4)


class BoundarySweep:
    """bubble_energies + ray_peak_energy on a geometric eps grid, N = 4 and 5.

    The seed picks the far site (distance, exponent) from a menu whose every
    entry was run and checked: a continuous draw can hit the cutoff rounding
    fault (see CHANGES.md) on some seeds only.  Far exponents stay below
    2 - s, where the far mass dominates the margin's decay so the scaled
    margins increase.  The eps grid is fixed because the round's cost
    depends on it.
    """

    name = "boundary-sweep"
    dims = (4, 5)
    eps = (1e-3, 5e-4, 2.5e-4)
    far_menu = tuple((dist, s_far) for dist in (0.3, 0.4, 0.5) for s_far in (0.5, 0.7, 0.9))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.far = [random.Random(seed).choice(self.far_menu)]
        self.cut = boundary_energy.CutoffSpec(delta=DELTA)
        self.cases = [(extremals.HSParams(n, S_BUBBLE),
                       boundary_energy.BoundaryGeometry((1.0,) * (n - 1), DELTA))
                      for n in self.dims]

    def setup(self) -> None:
        pass  # the ledger keeps no cache that public calls can fill

    def prepare(self):
        return None

    def run(self, _prepared):
        out = []
        for p, geom in self.cases:
            for eps in self.eps:
                b = boundary_energy.bubble_energies(eps, geom, self.cut, self.far, p)
                out.append((p.N, b, boundary_energy.ray_peak_energy(b, RAY_LAMBDA, p)))
        return out

    def failed(self, outputs) -> int:
        return 0

    @staticmethod
    def rows(outputs, n: int) -> list[dict]:
        """The ledger rows of dimension n, as checks.boundary_sweep takes them."""
        return [dict(eps=b.eps, grad_energy=b.grad_energy, near_mass=b.near_mass,
                     l2_mass=b.l2_mass, far_masses=list(b.far_masses),
                     sliver_energy=b.sliver_energy, sliver_mass=b.sliver_mass,
                     peak_scale=peak.scale, peak=peak.value)
                for dim, b, peak in outputs if dim == n]

    def check(self, outputs) -> list[str]:
        problems = []
        for p, geom in self.cases:
            problems += checks.boundary_sweep(p.N, p.s, RAY_LAMBDA, geom.mean_curvature,
                                              self.far, self.rows(outputs, p.N))
        return problems


INTERIOR_PAIR = ((0.3, 0.5, 0.5), (0.7, 0.5, 0.5))
FACE_PAIR = ((0.0, 0.5, 0.5), (0.7, 0.5, 0.5))


class SolveNonconst:
    """mountain_pass_solve on the unit cube at lambda = 5 and 20.

    The problems are fixed: an axis permutation of a converging problem
    already fails to converge, so no seeded change of the inputs keeps the
    failure count fixed.  The seed sets the order of the solves in a round.
    The first two problems fail today (the line search stalls, see
    CHANGES.md); each counts as one failed operation.
    """

    name = "solve-nonconst"
    problems = (
        (32, 5.0, INTERIOR_PAIR),
        (32, 5.0, FACE_PAIR),
        (36, 5.0, INTERIOR_PAIR),
        (40, 5.0, INTERIOR_PAIR),
        (38, 20.0, FACE_PAIR),
        (40, 20.0, FACE_PAIR),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        order = list(self.problems)
        random.Random(seed).shuffle(order)
        self.configs = [self.config(*problem) for problem in order]
        self.opts = variational.SolveOptions(grad_tol=GRAD_TOL, max_iters=MAX_ITERS)

    @staticmethod
    def config(n: int, lam: float, sites) -> variational.ProblemConfig:
        grid = variational.DomainGrid(((0.0, 1.0),) * 3, (n,) * 3)
        sings = tuple(variational.Singularity(site, S_BUBBLE) for site in sites)
        return variational.ProblemConfig(grid, lam, sings)

    def setup(self) -> None:
        extremals.whole_space_constants(extremals.HSParams(3, S_BUBBLE))  # for the thresholds
        for cfg in self.configs:
            variational.node_volumes(cfg.grid)
            for sing in cfg.singularities:
                variational.singular_weight(cfg.grid, sing)

    def prepare(self):
        return None

    def run(self, _prepared):
        return [(cfg, *variational.mountain_pass_solve(cfg, opts=self.opts))
                for cfg in self.configs]

    def failed(self, outputs) -> int:
        return sum(1 for _, report, _ in outputs if not report.converged)

    def check(self, outputs) -> list[str]:
        problems = []
        energies: dict = {}
        for cfg, report, u in outputs:
            if not report.converged:
                continue
            problems += checks.solve(solve_case(cfg, u, {k: getattr(report, k) for k in REPORT_KEYS}))
            key = (cfg.lam, tuple(sing.location for sing in cfg.singularities))
            energies.setdefault(key, []).append(report.energy)
        return problems + checks.grid_agreement(energies)


REPORT_KEYS = ("energy", "residual_sup", "min_value", "threshold", "below_threshold")


def problem_case(cfg: variational.ProblemConfig) -> dict:
    """The problem and discretisation inputs of ``cfg``, as the checks take them."""
    grid = cfg.grid
    return dict(
        n=grid.N, s=S_BUBBLE, lam=cfg.lam, spacing=grid.spacing, volume=grid.volume,
        face=[any(x in (0.0, 1.0) for x in sing.location) for sing in cfg.singularities],
        grad_tol=GRAD_TOL, node_volumes=variational.node_volumes(grid),
        weights=[variational.singular_weight(grid, sing) for sing in cfg.singularities])


def solve_case(cfg: variational.ProblemConfig, u: np.ndarray, report: dict) -> dict:
    """What checks.solve takes: the problem, the field ``u``, its residual
    recomputed from gradient / node_volumes, and the REPORT_KEYS of a report."""
    case = problem_case(cfg)
    residual = float(np.max(np.abs(variational.gradient(u, cfg) / case["node_volumes"])))
    return {**case, "u": u, "residual": residual, **report}


class SmallCalls:
    """A seeded stream of small in-process ``hslab.cli.main`` commands.

    Every round runs the same command mix on freshly drawn parameters (a new
    s for every constants and identities command, so the
    whole_space_constants cache never hits across them).  The solve and
    sweep-lambda commands share one seeded pair of interior sites on a 16^3
    grid, whose weights set-up fills.
    """

    name = "small-calls"
    mix = ("constants",) * 6 + ("identities",) * 6 + ("boundary",) + ("solve",) * 2 + ("sweep-lambda",) * 2
    nodes = 16
    # (s, coarsest eps, far site); like BoundarySweep's menus, every entry was
    # run and checked, since continuous draws can hit the cutoff rounding fault
    boundary_menu = tuple((s, eps0, far) for s in (0.9, 1.0, 1.1) for eps0 in (1e-3, 7e-4, 5e-4)
                          for far in ((0.3, 0.6), (0.45, 1.2)))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        while True:
            a, b = self.rng.uniform(0.25, 0.75, size=(2, 3))
            if math.dist(a, b) > 0.25:
                break
        self.sites = [tuple(float(x) for x in a), tuple(float(x) for x in b)]
        self.grid = variational.DomainGrid(((0.0, 1.0),) * 3, (self.nodes,) * 3)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # the thresholds of the solves and of the boundary menu's exponents
        for s in {S_BUBBLE, *(entry[0] for entry in self.boundary_menu)}:
            extremals.whole_space_constants(extremals.HSParams(3, s))
        variational.node_volumes(self.grid)
        for site in self.sites:
            variational.singular_weight(self.grid, variational.Singularity(site, S_BUBBLE))

    def _draw(self, command: str) -> dict:
        rng = self.rng
        if command == "constants":
            ns = sorted(int(n) for n in rng.choice([3, 4, 5], size=2, replace=False))
            return {"params": {"N_list": ns, "s_list": [float(x) for x in rng.uniform(*S_RANGE, 2)]}}
        if command == "identities":
            return {"params": {"N": int(rng.integers(3, 6)), "s": float(rng.uniform(*S_RANGE))}}
        if command == "boundary":
            s, eps0, (dist, s_far) = self.boundary_menu[int(rng.integers(len(self.boundary_menu)))]
            return {"params": {"N": 3, "s": s},
                    "geometry": {"curvatures": [1.0, 1.0], "delta": DELTA},
                    "lambda": RAY_LAMBDA, "eps_list": [eps0, 0.5 * eps0, 0.25 * eps0],
                    "far_sites": [{"distance": dist, "s": s_far}]}
        problem = {"grid": {"bounds": [[0.0, 1.0]] * 3, "nodes": [self.nodes] * 3},
                   "singularities": [{"location": list(site), "s": S_BUBBLE} for site in self.sites],
                   "solver": {"grad_tol": GRAD_TOL}}
        if command == "solve":
            return {**problem, "lambda": float(rng.uniform(0.005, 0.1))}
        return {**problem, "lambda_list": sorted(float(x) for x in rng.uniform(0.005, 0.1, 3))}

    def prepare(self):
        """Write this round's configs; returns (command, config, config path, csv path)."""
        calls = []
        for k, command in enumerate(self.mix):
            cfg = self._draw(command)
            stem = self.workdir / f"{k:02d}-{command}"
            if command == "solve":
                cfg["field_output"] = f"{stem}.field"
            with open(f"{stem}.yaml", "w", encoding="utf-8") as fh:
                yaml.safe_dump(cfg, fh)
            calls.append((command, cfg, f"{stem}.yaml", f"{stem}.csv"))
        return calls

    def run(self, calls):
        out = []
        for command, cfg, cfg_path, csv_path in calls:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main([command, "--config", cfg_path, "--out", csv_path])
            out.append((command, cfg, csv_path, status, sink.getvalue()))
        return out

    def failed(self, outputs) -> int:
        failures = [(command, log) for command, _, _, status, log in outputs if status != 0]
        for command, log in failures:
            print(f"{command} failed:\n{log}", file=sys.stderr)
        return len(failures)

    def check(self, outputs) -> list[str]:
        problems = []
        for command, cfg, csv_path, status, log in outputs:
            if status != 0:
                continue
            rows = checks.read_csv(csv_path)
            params = cfg.get("params", {})
            if command == "constants":
                pairs = [(n, s) for n in params["N_list"] for s in params["s_list"]]
                problems += checks.constants_rows(rows, pairs)
            elif command == "identities":
                problems += checks.identities_rows(rows, params["N"], params["s"])
            elif command == "boundary":
                far = [(f["distance"], f["s"]) for f in cfg["far_sites"]]
                problems += checks.boundary_rows(rows, 3, params["s"], cfg["lambda"], 2.0,
                                                 far, cfg["eps_list"])
            elif command == "solve":
                problems += self._check_solve(cfg, rows)
            else:
                problems += self._check_sweep(cfg, rows)
        return problems

    def _problem(self, lam: float) -> variational.ProblemConfig:
        sings = tuple(variational.Singularity(site, S_BUBBLE) for site in self.sites)
        return variational.ProblemConfig(self.grid, lam, sings)

    def _check_solve(self, cfg: dict, rows: list[dict]) -> list[str]:
        if len(rows) != 1 or rows[0]["converged"] != "true":
            return [f"solve_rows: {rows}"]
        row = rows[0]
        report = {key: float(row[key]) for key in REPORT_KEYS[:-1]}
        report["below_threshold"] = row["below_threshold"] == "true"
        # snapshot header: N, the node counts, the bound pairs
        u = np.fromfile(cfg["field_output"], dtype=np.float64)[10:].reshape(self.grid.shape)
        case = solve_case(self._problem(cfg["lambda"]), u, report)
        return checks.solve(case) + checks.near_constant(case)

    def _check_sweep(self, cfg: dict, rows: list[dict]) -> list[str]:
        lams = cfg["lambda_list"]
        if [float(r["lam"]) for r in rows] != lams or any(r["converged"] != "true" for r in rows):
            return [f"sweep_rows: {rows}"]
        problems = []
        for r, lam in zip(rows, lams):
            case = {**problem_case(self._problem(lam)), "energy": float(r["solver_energy"])}
            expected = {"constant_path_max": checks.constant_path_max(case),
                        "threshold": checks.threshold_of(case),
                        "lambda_bound": checks.lambda_bound(case)}
            for key, value in expected.items():
                if checks.rel_diff(float(r[key]), value) > checks.CLOSED_FORM_TOL:
                    problems.append(f"sweep_closed_form: lambda={lam} {key} {r[key]} vs {value!r}")
            problems += checks.near_constant(case)
        return problems


WORKLOADS = {w.name: w for w in (BoundarySweep, SolveNonconst, SmallCalls)}
