"""Experiment runner: every module exposed as a subcommand writing CSV.

Subcommands: constants | identities | boundary | solve | sweep-lambda.
Each takes --config PATH (a YAML document checked against a typed schema:
unknown keys and wrong types are rejected with their full dotted paths,
parse errors carry line and column marks), plus --out PATH, --seed INT
(randomised initial fields), and --tol REAL (quadrature relative tolerance,
or the solver's gradient tolerance for solve/sweep-lambda).

Each command builds all of its library objects before its first
computation, so a config error, out-of-range values included, stops it
before any work is done.  CSV output is deterministic: header row, comma
separators, '.' decimals, floats at 17 significant digits, rows in config
order — identical configs produce byte-identical files.  Exit status is 0
iff every computation succeeded, 1 if some failed (each itemised on
stderr), and 2 for a config error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Any, Callable, Sequence

import numpy as np
import yaml

from . import boundary_energy, extremals, identities, variational
from .quadrature import QuadratureSettings

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Configuration file is missing, malformed, or out of range."""


# ---------------------------------------------------------------------------
# config loading: one typed walk
# ---------------------------------------------------------------------------

# A leaf is the type its value converts to, [t] is a nonempty list of t, and
# a mapping lists the only keys allowed in it.  Which keys are required
# depends on the command; the runners ask for those with ``_require``.
_SCHEMA: dict[str, Any] = {
    "params": {"N": int, "s": float, "N_list": [int], "s_list": [float]},
    "geometry": {"curvatures": [float], "delta": float},
    "grid": {"bounds": [[float]], "nodes": [int]},
    "lambda": float,
    "lambda_list": [float],
    "singularities": [{"location": [float], "s": float}],
    "far_sites": [{"distance": float, "s": float}],
    "eps_list": [float],
    "beta_list": [float],
    "solver": {"max_iters": int, "grad_tol": float},
    "init": {"type": str, "site": int, "eps": float, "value": float},
    "output": str,
    "field_output": str,
    "seed": int,
    "tol": float,
}

_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


def _convert(node: Any, schema: Any, path: str, problems: list[str]) -> Any:
    """``node`` checked against ``schema`` and converted to its types; each
    mismatch is appended to ``problems`` with its dotted path."""
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            problems.append(f"{path}: expected a mapping, got {node!r}")
            return None
        out = {}
        for key, value in node.items():
            child = f"{path}.{key}" if path else str(key)
            if key in schema:
                out[key] = _convert(value, schema[key], child, problems)
            else:
                problems.append(f"unknown key: {child}")
        return out
    if isinstance(schema, list):
        if not isinstance(node, list) or not node:
            problems.append(f"{path}: expected a nonempty list, got {node!r}")
            return None
        return [_convert(item, schema[0], f"{path}[{i}]", problems)
                for i, item in enumerate(node)]
    accepted = (int, float) if schema is float else schema
    if isinstance(node, bool) or not isinstance(node, accepted):
        problems.append(f"{path}: expected {_EXPECTED[schema]}, got {node!r}")
        return None
    return schema(node)


# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both build the same objects and give the same line and column marks
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> dict:
    """Parse a YAML config file, check it against the schema and convert it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"config parse error{where}: {detail}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    problems: list[str] = []
    cfg = _convert(data, _SCHEMA, "", problems)
    if problems:
        raise ConfigError("config schema errors:\n  " + "\n  ".join(problems))
    return cfg


def _require(node: dict, path: str) -> Any:
    """``node``'s value under the last key of the dotted ``path``; a missing
    key is a config error that names the whole path."""
    key = path.rpartition(".")[2]
    if key not in node:
        raise ConfigError(f"missing required key: {path}")
    return node[key]


def _make(where: str, factory: Callable, *args, **kwargs):
    """``factory(*args, **kwargs)``.  The library's constructors check the
    ranges of their inputs; a ValueError of theirs becomes a config error
    about ``where``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _params(cfg: dict) -> list[extremals.HSParams]:
    """Cross product of the requested dimensions and exponents, config order."""
    params = _require(cfg, "params")
    ns = params["N_list"] if "N_list" in params else [_require(params, "params.N")]
    ss = params["s_list"] if "s_list" in params else [_require(params, "params.s")]
    return [_make("params", extremals.HSParams, n, s) for n in ns for s in ss]


def _quad_settings(cfg: dict, tol_flag: float | None) -> QuadratureSettings | None:
    tol = tol_flag if tol_flag is not None else cfg.get("tol")
    if tol is None:
        return None
    return _make("tol", QuadratureSettings, rel_tol=tol, abs_tol=min(1e-14, tol))


def _grid_and_sites(cfg: dict) -> tuple[variational.DomainGrid,
                                        tuple[variational.Singularity, ...]]:
    grid = _require(cfg, "grid")
    domain = _make("grid", variational.DomainGrid,
                   _require(grid, "grid.bounds"), _require(grid, "grid.nodes"))
    sites = tuple(
        _make(f"singularities[{i}]", variational.Singularity,
              _require(site, f"singularities[{i}].location"),
              _require(site, f"singularities[{i}].s"))
        for i, site in enumerate(_require(cfg, "singularities")))
    return domain, sites


def _solve_options(cfg: dict, tol: float | None) -> variational.SolveOptions:
    kwargs = dict(cfg.get("solver", {}))
    if tol is not None:
        kwargs["grad_tol"] = tol
    return _make("solver", variational.SolveOptions, **kwargs)


def _initial(cfg: dict, problem: variational.ProblemConfig, seed: int) -> np.ndarray | None:
    """The solver's start field, or None for its default bubble start."""
    init = cfg.get("init")
    if init is None:
        return None
    kind = init.get("type", "bubble")
    if kind == "bubble":
        return _make("init", variational.bubble_start, problem, init.get("site"), init.get("eps"))
    if kind not in ("constant", "random"):
        raise ConfigError(f"init.type must be bubble, constant, or random, got {kind!r}")
    value = init.get("value", 1.0)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigError(f"init.value must be a positive real, got {value!r}")
    shape = problem.grid.shape
    if kind == "constant":
        return np.full(shape, value)
    return value * np.abs(np.random.default_rng(seed).standard_normal(shape))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each builds its inputs, then returns (header, rows, failures)
# ---------------------------------------------------------------------------


def _stacked(batch: Callable, items: Sequence, *args) -> list:
    """``batch(items, *args)``, one result per item from one stacked run, or
    None for every item if the run raises: the caller then redoes each item
    alone, so each failure is itemised on its own."""
    try:
        return batch(items, *args)
    except Exception:
        return [None] * len(items)


def _run_constants(cfg: dict, tol: float | None, seed: int, out_path: str):
    settings = _quad_settings(cfg, tol)
    params = _params(cfg)
    header = ["n", "s", "grad_energy", "weighted_mass", "best_constant",
              "interior_threshold", "boundary_threshold"]
    rows, failures = [], []
    # the stacked run also fills the constants cache that ps_threshold reads
    for p, consts in zip(params, _stacked(extremals.whole_space_constants_batch,
                                          params, settings)):
        try:
            if consts is None:
                consts = extremals.whole_space_constants(p, settings)
            interior, boundary = (
                identities.ps_threshold(p.N, [identities.SingularitySite(theta, p.s)],
                                        settings).overall
                for theta in (1.0, 0.5))
            rows.append([p.N, p.s, consts.grad_energy, consts.weighted_mass,
                         consts.best_constant, interior, boundary])
        except Exception as exc:
            failures.append(f"constants(N={p.N}, s={p.s}): {exc}")
    return header, rows, failures


def _run_identities(cfg: dict, tol: float | None, seed: int, out_path: str):
    settings = _quad_settings(cfg, tol)
    params = _params(cfg)
    header = ["kind", "n", "s", "beta", "lhs", "rhs", "rel_diff",
              "sliver_ratio_limit", "moment_ratio", "strict_gap"]
    rows, failures = [], []
    # fills the constants cache that bubble_moment_ratio reads
    _stacked(extremals.whole_space_constants_batch, params, settings)
    for p in params:
        n, s = p.N, p.s
        if "beta_list" in cfg:
            betas = cfg["beta_list"]
        else:
            betas = np.linspace(2.0, 2.0 * (n - s) - 1.0, 6)
        for beta, chk in zip(betas, _stacked(identities.beta_recurrence_checks,
                                             betas, p, settings)):
            try:
                if chk is None:
                    chk = identities.beta_recurrence_check(beta, p, settings)
                rows.append(["recurrence", n, s, beta, chk.lhs, chk.rhs,
                             chk.rel_diff, None, None, None])
            except Exception as exc:
                failures.append(f"identities(N={n}, s={s}, beta={beta}): {exc}")
        try:
            ratio = identities.bubble_moment_ratio(p, settings)
            rows.append(["ratios", n, s, None, None, None, None,
                         identities.sliver_ratio_limit(p), ratio.quadrature,
                         identities.strict_gap(p)])
        except Exception as exc:
            failures.append(f"identities ratios(N={n}, s={s}): {exc}")
    return header, rows, failures


def _run_boundary(cfg: dict, tol: float | None, seed: int, out_path: str):
    settings = _quad_settings(cfg, tol)
    params = _params(cfg)
    if len(params) != 1:
        raise ConfigError("params: boundary takes a single (N, s) pair")
    p = params[0]
    geo = _require(cfg, "geometry")
    geom = _make("geometry", boundary_energy.BoundaryGeometry,
                 _require(geo, "geometry.curvatures"), _require(geo, "geometry.delta"))
    _make("geometry.curvatures", boundary_energy.check_dimension, geom, p)
    cut = boundary_energy.CutoffSpec(delta=geom.delta)
    # each far site's exponent is checked as the s of its own (N, s) pair
    far = [(_require(site, f"far_sites[{i}].distance"),
            _make(f"far_sites[{i}]", extremals.HSParams,
                  p.N, _require(site, f"far_sites[{i}].s")).s)
           for i, site in enumerate(cfg.get("far_sites", []))]
    lam = cfg.get("lambda", 0.0)
    eps_list = _require(cfg, "eps_list")
    threshold = boundary_energy.boundary_threshold(p, settings)

    header = ["kind", "eps", "grad_energy", "near_mass", "l2_mass",
              "far_mass_total", "sliver_energy", "sliver_mass",
              "peak", "margin", "scaled_margin"]
    rows, failures = [], []
    good: list[boundary_energy.EnergyBreakdown] = []
    for eps in eps_list:
        try:
            res = boundary_energy.bubble_energies(eps, geom, cut, far, p, settings)
            row = boundary_energy.margin_row(res, lam, p, threshold)
        except Exception as exc:
            failures.append(f"boundary(eps={eps}): {exc}")
            continue
        good.append(res)
        rows.append(["energy", res.eps, res.grad_energy, res.near_mass,
                     res.l2_mass, sum(res.far_masses), res.sliver_energy,
                     res.sliver_mass, row.peak, row.margin, row.scaled_margin])
    if len(good) >= 2:
        eps_ok = [b.eps for b in good]

        def slope_or_none(values: list[float]) -> float | None:
            try:
                return boundary_energy.fit_log_slope(eps_ok, values)
            except ValueError:
                return None

        rows.append([
            "slope", None, None, None,
            slope_or_none([b.l2_mass for b in good]),
            slope_or_none([sum(b.far_masses) for b in good]),
            slope_or_none([b.sliver_energy for b in good]),
            slope_or_none([b.sliver_mass for b in good]),
            None, None, None,
        ])
    return header, rows, failures


def _run_solve(cfg: dict, tol: float | None, seed: int, out_path: str):
    grid, sites = _grid_and_sites(cfg)
    problem = _make("grid, lambda, singularities", variational.ProblemConfig,
                    grid, _require(cfg, "lambda"), sites)
    _make("grid", problem.exponents)
    opts = _solve_options(cfg, tol)
    init = _initial(cfg, problem, seed)
    snapshot = cfg.get("field_output", out_path + ".field")
    header = ["energy", "residual_sup", "min_value", "iterations",
              "threshold", "below_threshold", "converged"]
    rows, failures = [], []
    try:
        report, field = variational.mountain_pass_solve(problem, init, opts)
        rows.append([report.energy, report.residual_sup, report.min_value,
                     report.iterations, report.threshold,
                     report.below_threshold, report.converged])
        variational.save_field(snapshot, grid, field)
    except Exception as exc:
        failures.append(f"solve: {exc}")
    return header, rows, failures


def _run_sweep_lambda(cfg: dict, tol: float | None, seed: int, out_path: str):
    settings = _quad_settings(cfg, tol)
    grid, sites = _grid_and_sites(cfg)
    problems = [_make("grid, lambda_list, singularities", variational.ProblemConfig,
                      grid, lam, sites)
                for lam in _require(cfg, "lambda_list")]
    qs = _make("grid", problems[0].exponents)
    opts = _solve_options(cfg, tol)
    init = _initial(cfg, problems[0], seed)

    volume = grid.volume
    vol_nodes = variational.node_volumes(grid)
    masses = [float(np.sum(variational.singular_weight(grid, site) * vol_nodes))
              for site in sites]
    placed = [identities.SingularitySite(variational.placement_of(grid, site), site.s)
              for site in sites]
    threshold = identities.ps_threshold(grid.N, placed, settings).overall
    lam_bound = identities.lambda_existence_bound(volume, masses, qs, threshold)

    header = ["lam", "constant_path_max", "threshold", "lambda_bound",
              "solver_energy", "below_threshold", "converged"]
    rows, failures = [], []
    for problem in problems:
        lam = problem.lam
        try:
            if lam <= 0.0:
                raise ValueError("sweep requires lambda > 0")
            peak = identities.ray_peak(lam * volume, masses, qs)[1]
            report, _ = variational.mountain_pass_solve(problem, init, opts)
            rows.append([lam, peak, threshold, lam_bound, report.energy,
                         report.below_threshold, report.converged])
        except Exception as exc:
            failures.append(f"sweep-lambda(lambda={lam}): {exc}")
    return header, rows, failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "constants": (_run_constants, "whole-space constants and compactness thresholds"),
    "identities": (_run_identities, "radial moment recurrence and ratio checks"),
    "boundary": (_run_boundary, "curved-boundary bubble energy sweep over eps"),
    "solve": (_run_solve, "mountain-pass solve on a Neumann box"),
    "sweep-lambda": (_run_sweep_lambda,
                     "constant path, existence bound, and solves over lambda"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hslab",
        description="Hardy-Sobolev variational toolkit experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML config path")
        cmd.add_argument("--out", default=None, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="seed for randomised initial fields (default 0)")
        cmd.add_argument("--tol", type=float, default=None,
                         help="quadrature rel. tolerance, or solver gradient "
                              "tolerance for solve/sweep-lambda")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run = _COMMANDS[args.command][0]
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        out_path = args.out or cfg.get("output") or f"{args.command}.csv"
        header, rows, failures = run(cfg, args.tol, seed, out_path)
        _write_csv(out_path, header, rows)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path} ({len(rows)} rows)")
    for item in failures:
        print(f"failed: {item}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
