"""Output checks for the benchmark workloads.

Every reference value here is computed apart from hslab: the radial moments
come from the Beta-function closed form

    integral over (0, inf) of r**a (1 + r**c)**(-b) dr
        = B((a+1)/c, b - (a+1)/c) / c,        c = 2 - s,

and the discrete energy of a solver field is re-assembled from its own
finite differences.  The only hslab data the checks take as given are the
inputs of a discretisation (``singular_weight`` and ``node_volumes`` arrays).

Each check returns a list of problems, each starting with the check's name,
so a test can perturb one output and see exactly that check fail.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

RECURRENCE_TOL = 1e-8    # rel_diff of the two sides of the moment recurrence
CLOSED_FORM_TOL = 1e-8   # quadrature against the Beta closed form
# A lambda <= 0.1 solve sits below the constant-path maximum by a relative gap
# that grows linearly in lambda; over 400 seeded site pairs of the small-calls
# workload the gap reached 0.032 * lambda (0.0068 * lambda at least).
NEAR_CONSTANT_SLOPE = 0.1
GRID_AGREEMENT_TOL = 1e-2  # solver energies of one problem on two grids (O(h) apart)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def radial_moment(a: float, b: float, c: float) -> float:
    """integral over (0, inf) of r**a (1 + r**c)**(-b) dr, by the Beta function."""
    x = (a + 1.0) / c
    y = b - x
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)) / c


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def critical_exponent(n: int, s: float) -> float:
    return 2.0 * (n - s) / (n - 2.0)


def whole_space(n: int, s: float) -> tuple[float, float, float]:
    """(grad_energy, weighted_mass, best_constant) of the unit bubble."""
    b = 2.0 * (n - s) / (2.0 - s)
    grad = (n - 2.0) ** 2 * sphere_area(n) * radial_moment(n + 1.0 - 2.0 * s, b, 2.0 - s)
    mass = sphere_area(n) * radial_moment(n - 1.0 - s, b, 2.0 - s)
    return grad, mass, grad / mass ** ((n - 2.0) / (n - s))


def threshold_level(n: int, s: float, boundary: bool) -> float:
    """Compactness level of one site: interior, or half of it on a face."""
    level = (2.0 - s) / (2.0 * (n - s)) * whole_space(n, s)[2] ** ((n - s) / (2.0 - s))
    return 0.5 * level if boundary else level


def sliver_coefficients(n: int, s: float, mean_curvature: float) -> tuple[float, float]:
    """Leading coefficients of sliver energy and sliver mass over eps**(1/(2-s)).

    The energy coefficient is infinite in dimension three.
    """
    b = 2.0 * (n - s) / (2.0 - s)
    base = mean_curvature / (2.0 * (n - 1.0)) * sphere_area(n - 1)
    energy = math.inf if n == 3 else (
        base * (n - 2.0) ** 2 * radial_moment(n + 2.0 - 2.0 * s, b, 2.0 - s))
    return energy, base * radial_moment(n - s, b, 2.0 - s)


def sliver_ratio_limit(n: int, s: float) -> float:
    return (n - 3.0) / ((n + 1.0 - s) * (n - 2.0) ** 2)


def ray_peak(a: float, b: float, q: float) -> tuple[float, float]:
    """Maximiser and maximum of t -> a t**2/2 - b t**q/q over t > 0."""
    t = (a / b) ** (1.0 / (q - 2.0))
    return t, (0.5 - 1.0 / q) * a * t * t


def log_slope(x: Sequence[float], y: Sequence[float]) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _tends_to(name: str, values: Sequence[float], limit: float, tol: float) -> list[str]:
    """values (ordered by decreasing eps) approach ``limit`` and end within ``tol``."""
    gaps = [rel_diff(v, limit) for v in values]
    out = []
    if gaps[-1] > tol:
        out.append(f"{name}: last value {values[-1]!r} is {gaps[-1]:.2e} from {limit!r}")
    if any(g2 > g1 + 1e-6 for g1, g2 in zip(gaps, gaps[1:])):
        out.append(f"{name}: gaps to the limit do not shrink: {gaps}")
    return out


# ---------------------------------------------------------------------------
# boundary ledger
# ---------------------------------------------------------------------------


def boundary_sweep(n: int, s: float, lam: float, mean_curvature: float,
                   far_sites: Sequence[tuple[float, float]], rows: Sequence[dict]) -> list[str]:
    """Check one eps sweep of the boundary ledger.

    ``rows`` are ordered by decreasing eps; each holds ``eps``, the
    ``EnergyBreakdown`` fields (``grad_energy``, ``near_mass``, ``l2_mass``,
    ``far_masses``, ``sliver_energy``, ``sliver_mass``) and the reported ray
    peak (``peak``, and ``peak_scale`` where it is reported).
    """
    out: list[str] = []
    eps = [r["eps"] for r in rows]
    tau = [e ** (1.0 / (2.0 - s)) for e in eps]
    grad, mass, _ = whole_space(n, s)
    c_energy, c_mass = sliver_coefficients(n, s, mean_curvature)
    loose = 0.05 if n == 3 else 5e-3  # dimension three converges like eps**(1/(2-s)) |ln eps|
    out += _tends_to("half_space_grad", [r["grad_energy"] for r in rows], 0.5 * grad, loose)
    out += _tends_to("half_space_mass", [r["near_mass"] for r in rows], 0.5 * mass, loose)
    out += _tends_to("sliver_mass_coefficient",
                     [r["sliver_mass"] / t for r, t in zip(rows, tau)], c_mass, loose)
    ratios = [r["sliver_mass"] / r["sliver_energy"] for r in rows]
    if n == 3:
        if not all(b < a for a, b in zip(ratios, ratios[1:])):
            out.append(f"sliver_ratio: ratios do not fall toward 0: {ratios}")
    else:
        out += _tends_to("sliver_energy_coefficient",
                         [r["sliver_energy"] / t for r, t in zip(rows, tau)], c_energy, 5e-3)
        out += _tends_to("sliver_ratio", ratios, sliver_ratio_limit(n, s), 5e-3)
        slope = log_slope(eps, [r["sliver_energy"] for r in rows])
        if abs(slope - 1.0 / (2.0 - s)) > 0.01:
            out.append(f"sliver_energy_slope: {slope} vs {1.0 / (2.0 - s)}")
    slope = log_slope(eps, [r["sliver_mass"] for r in rows])
    if abs(slope - 1.0 / (2.0 - s)) > (0.03 if n == 3 else 0.01):
        out.append(f"sliver_mass_slope: {slope} vs {1.0 / (2.0 - s)}")
    # in dimension three the far-mass profile integral reaches the cutoff
    # (it diverges for s_far >= 1.5), so its eps rate is not s_far/(2-s)
    for k, (_, s_far) in enumerate(far_sites if n > 3 else ()):
        slope = log_slope(eps, [r["far_masses"][k] for r in rows])
        if abs(slope - s_far / (2.0 - s)) > 0.01:
            out.append(f"far_mass_slope: site {k} slope {slope} vs {s_far / (2.0 - s)}")

    q = critical_exponent(n, s)
    threshold = threshold_level(n, s, boundary=True)
    scaled = []
    for r, t in zip(rows, tau):
        a = r["grad_energy"] + lam * r["l2_mass"]
        scale, peak = ray_peak(a, r["near_mass"] + sum(r["far_masses"]), q)
        if rel_diff(scale, r.get("peak_scale", scale)) > 1e-10 or rel_diff(peak, r["peak"]) > 1e-10:
            out.append(f"ray_peak: eps={r['eps']} reported {r['peak']!r}, expected {peak!r}")
        scaled.append((threshold - r["peak"]) / t)
    if n > 3:
        if not all(m > 0.0 for m in scaled):
            out.append(f"margin_positive: scaled margins {scaled}")
        if not all(b > a for a, b in zip(scaled, scaled[1:])):
            out.append(f"margin_increasing: scaled margins {scaled}")
    return out


# ---------------------------------------------------------------------------
# discrete energy of a solver field, re-assembled independently
# ---------------------------------------------------------------------------


def _trapezoid(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def field_terms(u: np.ndarray, lam: float, spacing: Sequence[float],
                weights: Sequence[np.ndarray], q: float) -> tuple[float, list[float]]:
    """(quadratic part, per-site critical masses) of a node field on a box grid.

    Quadratic part: squared forward differences on every edge times the
    edge's dual volume, plus lam times the trapezoid-weighted squares.
    """
    dims = u.ndim
    axis_w = [_trapezoid(n, h) for n, h in zip(u.shape, spacing)]
    vol = np.ones(u.shape)
    for k in range(dims):
        vol = vol * axis_w[k].reshape([-1 if j == k else 1 for j in range(dims)])
    quad = lam * float(np.sum(u * u * vol))
    for k in range(dims):
        diff = np.diff(u, axis=k) / spacing[k]
        edge = np.ones(diff.shape)
        for j in range(dims):
            w = np.full(diff.shape[k], spacing[k]) if j == k else axis_w[j]
            edge = edge * w.reshape([-1 if i == j else 1 for i in range(dims)])
        quad += float(np.sum(diff * diff * edge))
    up = np.maximum(u, 0.0)
    masses = [float(np.sum(w * up**q * vol)) for w in weights]
    return quad, masses


def constant_path_max(case: dict) -> float:
    """Maximum over constants c > 0 of the discrete energy of c.

    That is lam V c**2/2 - sum(M_i) c**q/q with M_i = sum(w_i * node volumes).
    """
    masses = [float(np.sum(w * case["node_volumes"])) for w in case["weights"]]
    q = critical_exponent(case["n"], case["s"])
    return ray_peak(case["lam"] * case["volume"], sum(masses), q)[1]


def threshold_of(case: dict) -> float:
    return min(threshold_level(case["n"], case["s"], face) for face in case["face"])


def lambda_bound(case: dict) -> float:
    """The lam at which the constant-path maximum (~ lam**(q/(q-2))) meets the threshold."""
    q = critical_exponent(case["n"], case["s"])
    return (threshold_of(case) / constant_path_max({**case, "lam": 1.0})) ** ((q - 2.0) / q)


def solve(case: dict) -> list[str]:
    """Check one solve reported as converged.

    ``case`` holds the problem (``lam``, ``n`` the dimension, ``s``,
    ``spacing``, ``volume``, ``face`` per site, ``grad_tol``), the
    discretisation inputs (``weights`` per site, ``node_volumes``), the
    field ``u``, the recomputed ``residual`` sup norm
    (|gradient / node_volumes|), and the report fields ``energy``,
    ``residual_sup``, ``min_value``, ``threshold``, ``below_threshold``.
    """
    out = []
    u = case["u"]
    q = critical_exponent(case["n"], case["s"])
    if not float(np.min(u)) > 0.0 or case["min_value"] != float(np.min(u)):
        out.append(f"positive: min {float(np.min(u))!r}, reported {case['min_value']!r}")
    quad, masses = field_terms(u, case["lam"], case["spacing"], case["weights"], q)
    if abs(quad - sum(masses)) > 1e-9 * quad:
        out.append(f"nehari: <E'(u), u> = {quad - sum(masses)!r} of {quad!r}")
    energy = 0.5 * quad - sum(masses) / q
    if rel_diff(energy, case["energy"]) > 1e-9:
        out.append(f"energy: reported {case['energy']!r}, re-assembled {energy!r}")
    if not (case["residual"] < case["grad_tol"] and rel_diff(case["residual"], case["residual_sup"]) < 1e-9):
        out.append(f"residual: recomputed {case['residual']!r}, reported {case['residual_sup']!r}")
    peak = constant_path_max(case)
    if not case["energy"] < peak:
        out.append(f"constant_path: energy {case['energy']!r} not below {peak!r}")
    threshold = threshold_of(case)
    if rel_diff(threshold, case["threshold"]) > 1e-8 or case["below_threshold"] != (case["energy"] < case["threshold"]):
        out.append(f"threshold: reported {case['threshold']!r}, expected {threshold!r}")
    return out


def grid_agreement(energies: dict) -> list[str]:
    """Energies of one (lam, sites) problem on different grids agree."""
    out = []
    for key, values in energies.items():
        if len(values) > 1 and rel_diff(max(values), min(values)) > GRID_AGREEMENT_TOL:
            out.append(f"grid_agreement: {key} energies {values}")
    return out


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def constants_rows(rows: Sequence[dict], pairs: Sequence[tuple[int, float]]) -> list[str]:
    out = []
    if [(int(r["n"]), float(r["s"])) for r in rows] != list(pairs):
        out.append(f"constants_rows: rows {[(r['n'], r['s']) for r in rows]} for {pairs}")
        return out
    for r, (n, s) in zip(rows, pairs):
        grad, mass, best = whole_space(n, s)
        expected = {"grad_energy": grad, "weighted_mass": mass, "best_constant": best,
                    "interior_threshold": threshold_level(n, s, False),
                    "boundary_threshold": threshold_level(n, s, True)}
        for key, value in expected.items():
            if rel_diff(float(r[key]), value) > CLOSED_FORM_TOL:
                out.append(f"constants_closed_form: N={n} s={s} {key} {r[key]} vs {value!r}")
    return out


def identities_rows(rows: Sequence[dict], n: int, s: float) -> list[str]:
    out = []
    b = 2.0 * (n - s) / (2.0 - s)
    rec = [r for r in rows if r["kind"] == "recurrence"]
    ratios = [r for r in rows if r["kind"] == "ratios"]
    if len(rec) != 6 or len(ratios) != 1:
        return [f"identities_rows: {len(rec)} recurrence rows, {len(ratios)} ratio rows"]
    for r in rec:
        beta = float(r["beta"])
        lhs = radial_moment(beta - s, b, 2.0 - s)
        rhs = (beta - 1.0) / (2.0 * n - beta - 1.0 - s) * radial_moment(beta - 2.0, b, 2.0 - s)
        if not float(r["rel_diff"]) < RECURRENCE_TOL:
            out.append(f"recurrence: beta={beta} rel_diff {r['rel_diff']}")
        if rel_diff(float(r["lhs"]), lhs) > CLOSED_FORM_TOL or rel_diff(float(r["rhs"]), rhs) > CLOSED_FORM_TOL:
            out.append(f"recurrence_closed_form: beta={beta} lhs {r['lhs']} vs {lhs!r}")
    r = ratios[0]
    limit = sliver_ratio_limit(n, s)
    if (rel_diff(float(r["sliver_ratio_limit"]), limit) > 1e-12
            or rel_diff(float(r["moment_ratio"]), (n - 2.0) ** -2) > CLOSED_FORM_TOL
            or abs(float(r["strict_gap"]) - ((n - 2.0) ** -2 - limit)) > 1e-12):
        out.append(f"ratios: {r}")
    return out


def boundary_rows(rows: Sequence[dict], n: int, s: float, lam: float, mean_curvature: float,
                  far_sites: Sequence[tuple[float, float]], eps_list: Sequence[float]) -> list[str]:
    energy = [r for r in rows if r["kind"] == "energy"]
    slope = [r for r in rows if r["kind"] == "slope"]
    if [float(r["eps"]) for r in energy] != list(eps_list) or len(slope) != 1:
        return [f"boundary_rows: eps column {[r['eps'] for r in energy]} for {eps_list}"]
    threshold = threshold_level(n, s, boundary=True)
    out, ledger = [], []
    for r in energy:
        row = {key: float(r[key]) for key in ("eps", "grad_energy", "near_mass", "l2_mass",
                                              "sliver_energy", "sliver_mass", "peak")}
        row["far_masses"] = [float(r["far_mass_total"])]
        margin = threshold - row["peak"]
        if (abs(float(r["margin"]) - margin) > 1e-10 * threshold
                or rel_diff(float(r["scaled_margin"]), margin / row["eps"] ** (1.0 / (2.0 - s))) > 1e-8):
            out.append(f"boundary_margin: eps={row['eps']} margin {r['margin']} vs {margin!r}")
        ledger.append(row)
    out += boundary_sweep(n, s, lam, mean_curvature, far_sites, ledger)
    for key in ("sliver_energy", "sliver_mass"):
        fitted = log_slope(eps_list, [row[key] for row in ledger])
        if abs(float(slope[0][key]) - fitted) > 1e-9:
            out.append(f"boundary_slope_row: {key} {slope[0][key]} vs {fitted!r}")
    return out


def near_constant(case: dict) -> list[str]:
    """A lambda <= 0.1 solve sits just below the constant-path maximum."""
    energy, peak = case["energy"], constant_path_max(case)
    gap = (peak - energy) / peak
    if not 0.0 <= gap <= NEAR_CONSTANT_SLOPE * case["lam"]:
        return [f"near_constant: solver energy {energy!r} vs constant path {peak!r}"]
    return []
