"""Experiment runner: every module exposed as a subcommand writing CSV.

Subcommands: constants | identities | boundary | solve | sweep-lambda.
Each takes --config PATH (a YAML document validated against a fixed schema;
unknown keys are rejected with their full paths, parse errors carry line and
column marks), plus --out PATH, --seed INT (randomised initial fields), and
--tol REAL (quadrature relative tolerance, or the solver's gradient
tolerance for solve/sweep-lambda).

CSV output is deterministic: header row, comma separators, '.' decimals,
floats at 17 significant digits, rows in config order — identical configs
produce byte-identical files.  Exit status is 0 iff every computation
succeeded; partial failures are itemised on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Sequence

import numpy as np
import yaml

from . import boundary_energy, extremals, identities, variational
from .quadrature import QuadratureSettings

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Configuration file is missing, malformed, or out of range."""


# ---------------------------------------------------------------------------
# config loading and schema validation
# ---------------------------------------------------------------------------

_LEAF = "leaf"

_SCHEMA: dict[str, Any] = {
    "params": {"N": _LEAF, "s": _LEAF, "N_list": _LEAF, "s_list": _LEAF},
    "geometry": {"curvatures": _LEAF, "delta": _LEAF},
    "grid": {"bounds": _LEAF, "nodes": _LEAF},
    "lambda": _LEAF,
    "lambda_list": _LEAF,
    "singularities": [{"location": _LEAF, "s": _LEAF}],
    "far_sites": [{"distance": _LEAF, "s": _LEAF}],
    "eps_list": _LEAF,
    "beta_list": _LEAF,
    "box_nodes": _LEAF,
    "solver": {"max_iters": _LEAF, "grad_tol": _LEAF},
    "init": {"type": _LEAF, "site": _LEAF, "eps": _LEAF, "value": _LEAF},
    "output": _LEAF,
    "field_output": _LEAF,
    "seed": _LEAF,
    "tol": _LEAF,
}


def _walk_schema(node: Any, schema: Any, path: str, problems: list[str]) -> None:
    if schema == _LEAF:
        return
    if isinstance(schema, list):
        if not isinstance(node, list):
            problems.append(f"{path}: expected a list")
            return
        for i, item in enumerate(node):
            _walk_schema(item, schema[0], f"{path}[{i}]", problems)
        return
    if not isinstance(node, dict):
        problems.append(f"{path}: expected a mapping")
        return
    for key, value in node.items():
        child = f"{path}.{key}" if path else str(key)
        if key not in schema:
            problems.append(f"unknown key: {child}")
            continue
        _walk_schema(value, schema[key], child, problems)


def load_config(path: str) -> dict:
    """Parse and schema-validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
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
    _walk_schema(data, _SCHEMA, "", problems)
    if problems:
        raise ConfigError("config schema errors:\n  " + "\n  ".join(problems))
    return data


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _require(cfg: dict, key: str) -> Any:
    if key not in cfg:
        raise ConfigError(f"missing required key: {key}")
    return cfg[key]


def _exponent_in_range(s: float, path: str) -> float:
    if not (0.0 < s < 2.0):
        raise ConfigError(f"{path}: exponent s must lie in (0, 2), got {s}")
    return s


def _param_rows(cfg: dict) -> list[tuple[int, float]]:
    """Cross product of the requested dimensions and exponents, config order."""
    params = _require(cfg, "params")
    if "N_list" in params:
        ns = [_as_int(v, "params.N_list") for v in params["N_list"]]
    else:
        ns = [_as_int(_require(params, "N"), "params.N")]
    if "s_list" in params:
        ss = _as_float_list(params["s_list"], "params.s_list")
    else:
        ss = [_as_float(_require(params, "s"), "params.s")]
    for n in ns:
        if n < 3:
            raise ConfigError(f"params.N: dimension must be >= 3, got {n}")
    ss = [_exponent_in_range(s, "params.s") for s in ss]
    return [(n, s) for n in ns for s in ss]


def _single_params(cfg: dict) -> tuple[int, float]:
    rows = _param_rows(cfg)
    if len(rows) != 1:
        raise ConfigError("this subcommand needs a single (N, s) pair in params")
    return rows[0]


def _geometry(cfg: dict) -> boundary_energy.BoundaryGeometry:
    geo = _require(cfg, "geometry")
    curv = tuple(_as_float_list(_require(geo, "curvatures"), "geometry.curvatures"))
    delta = _as_float(_require(geo, "delta"), "geometry.delta")
    try:
        return boundary_energy.BoundaryGeometry(curvatures=curv, delta=delta)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def _grid(cfg: dict) -> variational.DomainGrid:
    grid = _require(cfg, "grid")
    bounds_raw = _require(grid, "bounds")
    if not isinstance(bounds_raw, list) or not bounds_raw:
        raise ConfigError("grid.bounds: expected a list of [lo, hi] pairs")
    bounds = []
    for i, pair in enumerate(bounds_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"grid.bounds[{i}]: expected a [lo, hi] pair")
        bounds.append((_as_float(pair[0], f"grid.bounds[{i}][0]"),
                       _as_float(pair[1], f"grid.bounds[{i}][1]")))
    nodes_raw = _require(grid, "nodes")
    if not isinstance(nodes_raw, list):
        raise ConfigError("grid.nodes: expected a list of integers")
    nodes = tuple(_as_int(v, f"grid.nodes[{i}]") for i, v in enumerate(nodes_raw))
    try:
        return variational.DomainGrid(bounds=tuple(bounds), nodes_per_axis=nodes)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _singularities(cfg: dict) -> tuple[variational.Singularity, ...]:
    raw = _require(cfg, "singularities")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("singularities: expected a nonempty list")
    out = []
    for i, entry in enumerate(raw):
        loc = tuple(_as_float_list(_require(entry, "location"),
                                   f"singularities[{i}].location"))
        s = _exponent_in_range(
            _as_float(_require(entry, "s"), f"singularities[{i}].s"),
            f"singularities[{i}].s",
        )
        try:
            out.append(variational.Singularity(location=loc, s=s))
        except ValueError as exc:
            raise ConfigError(f"singularities[{i}]: {exc}") from exc
    return tuple(out)


def _far_sites(cfg: dict) -> list[tuple[float, float]]:
    raw = cfg.get("far_sites", [])
    out = []
    for i, entry in enumerate(raw):
        dist = _as_float(_require(entry, "distance"), f"far_sites[{i}].distance")
        s = _exponent_in_range(
            _as_float(_require(entry, "s"), f"far_sites[{i}].s"),
            f"far_sites[{i}].s",
        )
        out.append((dist, s))
    return out


def _quad_settings(cfg: dict, tol_flag: float | None) -> QuadratureSettings | None:
    tol = tol_flag if tol_flag is not None else cfg.get("tol")
    if tol is None:
        return None
    tol = _as_float(tol, "tol")
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"tol must lie in (0, 1), got {tol}")
    return QuadratureSettings(rel_tol=tol, abs_tol=min(1e-14, tol))


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
# subcommands: each returns (header, rows, failures)
# ---------------------------------------------------------------------------


def _run_constants(cfg: dict, tol: float | None, seed: int):
    settings = _quad_settings(cfg, tol)
    header = ["n", "s", "grad_energy", "weighted_mass", "best_constant",
              "interior_threshold", "boundary_threshold"]
    rows, failures = [], []
    for n, s in _param_rows(cfg):
        try:
            p = extremals.HSParams(n, s)
            consts = extremals.whole_space_constants(p, settings)
            interior, boundary = (
                identities.ps_threshold(n, [identities.SingularitySite(theta, s)],
                                        settings).overall
                for theta in (1.0, 0.5))
            rows.append([n, s, consts.grad_energy, consts.weighted_mass,
                         consts.best_constant, interior, boundary])
        except Exception as exc:
            failures.append(f"constants(N={n}, s={s}): {exc}")
    return header, rows, failures


def _run_identities(cfg: dict, tol: float | None, seed: int):
    settings = _quad_settings(cfg, tol)
    header = ["kind", "n", "s", "beta", "lhs", "rhs", "rel_diff",
              "sliver_ratio_limit", "moment_ratio", "strict_gap"]
    rows, failures = [], []
    for n, s in _param_rows(cfg):
        p = extremals.HSParams(n, s)
        if "beta_list" in cfg:
            betas = _as_float_list(cfg["beta_list"], "beta_list")
        else:
            betas = list(np.linspace(2.0, 2.0 * (n - s) - 1.0, 6))
        for beta in betas:
            try:
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


def _run_boundary(cfg: dict, tol: float | None, seed: int):
    settings = _quad_settings(cfg, tol)
    n, s = _single_params(cfg)
    p = extremals.HSParams(n, s)
    geom = _geometry(cfg)
    cut = boundary_energy.CutoffSpec(delta=geom.delta)
    far = _far_sites(cfg)
    lam = _as_float(cfg.get("lambda", 0.0), "lambda")
    eps_list = _as_float_list(_require(cfg, "eps_list"), "eps_list")
    box_nodes = _as_int(cfg["box_nodes"], "box_nodes") if "box_nodes" in cfg else None
    threshold = boundary_energy.boundary_threshold(p, settings)

    header = ["kind", "eps", "grad_energy", "near_mass", "l2_mass",
              "far_mass_total", "sliver_energy", "sliver_mass",
              "peak", "margin", "scaled_margin"]
    rows, failures = [], []
    good: list[boundary_energy.EnergyBreakdown] = []
    for eps in eps_list:
        try:
            res = boundary_energy.bubble_energies(
                eps, geom, cut, far, p, settings, box_nodes=box_nodes)
        except Exception as exc:
            failures.append(f"boundary(eps={eps}): {exc}")
            continue
        good.append(res)
        row = boundary_energy.margin_row(res, lam, p, threshold)
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


def _solve_options(cfg: dict, tol: float | None) -> variational.SolveOptions:
    solver = cfg.get("solver", {})
    kwargs: dict[str, Any] = {}
    if "max_iters" in solver:
        kwargs["max_iters"] = _as_int(solver["max_iters"], "solver.max_iters")
    if "grad_tol" in solver:
        kwargs["grad_tol"] = _as_float(solver["grad_tol"], "solver.grad_tol")
    if tol is not None:
        kwargs["grad_tol"] = tol
    try:
        return variational.SolveOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _initial(cfg: dict, problem: variational.ProblemConfig, seed: int):
    init = cfg.get("init")
    if init is None:
        return None
    kind = init.get("type", "bubble")
    if kind == "bubble":
        site = _as_int(init["site"], "init.site") if "site" in init else None
        eps = _as_float(init["eps"], "init.eps") if "eps" in init else None
        return variational.BubbleAt(site=site, eps=eps)
    if kind == "constant":
        return variational.Constant(
            value=_as_float(init.get("value", 1.0), "init.value"))
    if kind == "random":
        scale = _as_float(init.get("value", 1.0), "init.value")
        rng = np.random.default_rng(seed)
        field = scale * np.abs(rng.standard_normal(problem.grid.shape))
        return variational.Custom(values=field)
    raise ConfigError(f"init.type must be bubble, constant, or random, got {kind!r}")


def _solve_header() -> list[str]:
    return ["energy", "residual_sup", "min_value", "iterations",
            "threshold", "below_threshold", "converged"]


def _run_solve(cfg: dict, tol: float | None, seed: int, out_path: str):
    grid = _grid(cfg)
    sings = _singularities(cfg)
    lam = _as_float(_require(cfg, "lambda"), "lambda")
    try:
        problem = variational.ProblemConfig(grid=grid, lam=lam, singularities=sings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    opts = _solve_options(cfg, tol)
    init = _initial(cfg, problem, seed)
    rows, failures = [], []
    header = _solve_header()
    try:
        report, field = variational.mountain_pass_solve(problem, init, opts)
        rows.append([report.energy, report.residual_sup, report.min_value,
                     report.iterations, report.threshold,
                     report.below_threshold, report.converged])
        snapshot = cfg.get("field_output", out_path + ".field")
        variational.save_field(snapshot, grid, field)
    except Exception as exc:
        failures.append(f"solve: {exc}")
    return header, rows, failures


def _run_sweep_lambda(cfg: dict, tol: float | None, seed: int):
    settings = _quad_settings(cfg, tol)
    grid = _grid(cfg)
    sings = _singularities(cfg)
    lam_list = _as_float_list(_require(cfg, "lambda_list"), "lambda_list")
    opts = _solve_options(cfg, tol)

    volume = grid.volume
    vol_nodes = variational.node_volumes(grid)
    masses = [float(np.sum(variational.singular_weight(grid, s_) * vol_nodes))
              for s_ in sings]
    qs = [variational.critical_exponent(grid.N, s_.s) for s_ in sings]
    sites = [identities.SingularitySite(variational.placement_of(grid, s_), s_.s)
             for s_ in sings]
    threshold = identities.ps_threshold(grid.N, sites, settings).overall
    lam_bound = identities.lambda_existence_bound(volume, masses, qs, threshold)

    header = ["lam", "constant_path_max", "threshold", "lambda_bound",
              "solver_energy", "below_threshold", "converged"]
    rows, failures = [], []
    for lam in lam_list:
        try:
            if lam <= 0.0:
                raise ValueError("sweep requires lambda > 0")
            peak = identities.ray_peak(lam * volume, masses, qs)[1]
            problem = variational.ProblemConfig(
                grid=grid, lam=lam, singularities=sings)
            init = _initial(cfg, problem, seed)
            report, _ = variational.mountain_pass_solve(problem, init, opts)
            rows.append([lam, peak, threshold, lam_bound, report.energy,
                         report.below_threshold, report.converged])
        except Exception as exc:
            failures.append(f"sweep-lambda(lambda={lam}): {exc}")
    return header, rows, failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hslab",
        description="Hardy-Sobolev variational toolkit experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("constants", "whole-space constants and compactness thresholds"),
        ("identities", "radial moment recurrence and ratio checks"),
        ("boundary", "curved-boundary bubble energy sweep over eps"),
        ("solve", "mountain-pass solve on a Neumann box"),
        ("sweep-lambda", "constant path, existence bound, and solves over lambda"),
    ]:
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
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else _as_int(
            cfg.get("seed", 0), "seed")
        out_path = args.out or cfg.get("output") or f"{args.command}.csv"
        if not isinstance(out_path, str):
            raise ConfigError("output must be a path string")
        if args.command == "constants":
            header, rows, failures = _run_constants(cfg, args.tol, seed)
        elif args.command == "identities":
            header, rows, failures = _run_identities(cfg, args.tol, seed)
        elif args.command == "boundary":
            header, rows, failures = _run_boundary(cfg, args.tol, seed)
        elif args.command == "solve":
            header, rows, failures = _run_solve(cfg, args.tol, seed, out_path)
        else:
            header, rows, failures = _run_sweep_lambda(cfg, args.tol, seed)
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
