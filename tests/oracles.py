"""Test oracles: an extremal family, its Rayleigh quotient, a two-basis fit,
improper quadrature, the uncut bubble's slivers and a nonpositive-lambda
sanity check.

None of these is used by the library.  They cross-check it from outside:

* :func:`extremal_value` is a normalised extremal candidate in two variants
  selected by ``base``: the "linear" radial base (scale + |x|) and the
  "power" base (scale + |x|^(2-s)).  The two coincide for s = 1, and the
  power base is proportional to the bubble, hence attains the best
  constant S for every s.  Both families are closed under dilation, so the
  quotient of either does not depend on the scale parameter.
* :func:`rayleigh_quotient_check` measures that quotient by quadrature.  Its
  integrands spread their mass over many decades of r near s -> 2, so the
  head (0, split) is seeded with the geometric edges split * 2**-k down to
  2**-64 times the profile width: with ``base="power"`` and scale 1e-3 it
  meets the best constant to 1e-14 at N = 3 and 4, s = 1.8.  At
  N = 5, s = 1.95 and scale 1e-3 the profile itself overflows
  ((1e-3)**-60 raised to q) and it raises ``NonFinite``.  The tail past
  split has no such seeds, so at scales of order 1 and above near s -> 2
  it is still off: by 3.5e-5 at N = 4, s = 1.9, scale 1.
* :func:`integrate_improper` integrates over (lo, inf) with a split at a
  finite radius and the tail mapped by u = 1/r.
* :func:`uncut_density` is the stacked radial density of the bubble with no
  cutoff, the cut-free formulas of the ledger's densities.
* :func:`fit_power_log_basis` fits c1 * eps^p * ln(1/eps) + c2 * eps^p, the
  shape of the dimension-three sliver energy.
* :func:`sliver_energy_integral` and :func:`sliver_mass_integral` are the
  sliver of one row (grad or mass) of the uncut bubble: the ledger's
  curvature rule and inner rule applied to :func:`uncut_density`, with the
  radial integral taken over (0, inf) by :func:`integrate_improper`.
  Without the cutoff the sliver of an isotropic floor is not analytic in
  the floor's coefficient at 0, so on a floor that changes sign the
  curvature rule is only approximate: it and a converged direction rule
  differ by about 1.6e-6 at N = 4, curvatures (1, -0.5, 2), and by 2e-3 at
  N = 3, curvatures (1, -0.5), both at eps = 1e-3.
* :func:`negative_lambda_sanity` checks that with lambda <= 0 every positive
  constant has negative discrete energy.
* :func:`threshold_inequality_check` audits the ledger's ray peaks against
  the boundary threshold along a list of eps, in a :class:`MarginReport`.
* :func:`bubble_field` is the radial bubble profile sampled on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from hslab.boundary_energy import (
    BoundaryGeometry,
    CutoffSpec,
    MarginRow,
    _POWER_SEEDS,
    _as_positive_arrays,
    _curvature_rule,
    _inner_stack,
    boundary_threshold,
    bubble_energies,
    check_dimension,
    margin_row,
)
from hslab.extremals import HSParams, bubble_radial
from hslab.quadrature import DEFAULT_REL_TOL, adaptive_gauss_kronrod, sphere_surface_area
from hslab.variational import DomainGrid, ProblemConfig, energy


class NonPositiveScale(ValueError):
    """The extremal family needs a strictly positive scale parameter."""


class PositiveLambda(ValueError):
    """The nonpositive-coefficient sanity check was called with lambda > 0."""


def _radius(x) -> np.ndarray:
    """|x| for a single point or an (..., N) stack of points."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.abs(arr)
    return np.sqrt(np.sum(arr * arr, axis=-1))


def extremal_value(x, scale: float, p: HSParams, base: str = "linear"):
    """Normalised extremal candidate at the point(s) x.

    ``base`` selects the radial base: "linear" gives (scale + |x|), "power"
    gives (scale + |x|**(2-s)); both carry the prefactor
    (scale * (N-s) * (N-2))**((N-2)/(2(N-s))).
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise NonPositiveScale("scale parameter must be a positive real")
    return _extremal_profile(_radius(x), scale, p, base)


def _extremal_profile(r: np.ndarray, scale: float, p: HSParams, base: str) -> np.ndarray:
    n, s = p.N, p.s
    pref = (scale * (n - s) * (n - 2.0)) ** ((n - 2.0) / (2.0 * (n - s)))
    expo = (2.0 - n) / (2.0 - s)
    if base == "linear":
        radial = scale + r
    elif base == "power":
        radial = scale + r ** (2.0 - s)
    else:
        raise ValueError(f"unknown base {base!r} (expected 'linear' or 'power')")
    return pref * radial**expo


def rayleigh_quotient_check(
    scale: float,
    p: HSParams,
    rel_tol: float = DEFAULT_REL_TOL,
    base: str = "linear",
) -> float:
    """Hardy-Sobolev quotient of the extremal candidate, by quadrature.

    Uses the analytic radial derivative of the profile (no finite
    differences).  Dilation invariance of the quotient makes the result
    independent of ``scale`` for either base; the power base reproduces the
    best constant itself (so does the linear base at s = 1, where the two
    families coincide).
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise NonPositiveScale("scale parameter must be a positive real")
    if base not in ("linear", "power"):
        raise ValueError(f"unknown base {base!r} (expected 'linear' or 'power')")
    n, s = p.N, p.s
    q = p.two_star
    kappa = 1.0 if base == "linear" else (2.0 - s)
    k = (2.0 - n) / (2.0 - s)
    omega = sphere_surface_area(n)

    def grad_sq(r: np.ndarray) -> np.ndarray:
        # |d/dr profile|^2 r^(N-1), with the r-powers combined first so the
        # kappa < 1 case never multiplies inf by zero near the origin
        prof = _extremal_profile(r, scale, p, base)
        amp = k * kappa * prof / (scale + r**kappa)
        return amp * amp * r ** (n - 3.0 + 2.0 * kappa)

    def weighted_mass(r: np.ndarray) -> np.ndarray:
        prof = _extremal_profile(r, scale, p, base)
        return prof**q * r ** (n - 1.0 - s)

    # profile features live at radius ~ scale**(1/kappa); seed panels there,
    # and at split / 2**k down to 2**-64 times that width: below a radius
    # r << width the integrands hold a share of about (r / width)**(N-2+2 kappa)
    # and (r / width)**(N-s) of their mass, both exponents above 1
    width = scale ** (1.0 / kappa)
    split = max(1.0, 8.0 * width)
    depth = math.ceil(math.log2(split / width)) + 64
    seeds = (0.25 * width, width, 4.0 * width, *(split * 2.0**-j for j in range(1, depth + 1)))
    opts = dict(split=split, rel_tol=rel_tol, breakpoints=seeds)
    num = omega * integrate_improper(grad_sq, **opts)
    den = omega * integrate_improper(weighted_mass, **opts)
    return num / den ** (2.0 / q)


def integrate_improper(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    lo: float = 0.0,
    split: float = 1.0,
    rel_tol: float = DEFAULT_REL_TOL,
    breakpoints: Sequence[float] = (),
) -> float | np.ndarray:
    """integral over (lo, inf) of a generic vectorized integrand, or of each row of a stack.

    The caller is responsible for integrability (head singularities no worse
    than the open panel rule can resolve, tail decay strictly faster than
    1/r).  Used for profile integrals that do not reduce to the power
    family; the tail beyond ``max(split, lo)`` is mapped with u = 1/r.  A
    stacked ``f`` returns (rows, nodes), as for :func:`adaptive_gauss_kronrod`.
    """
    cut = max(split, lo)
    tol = dict(rel_tol=rel_tol, abs_tol=0.5 * min(1e-14, rel_tol))
    total = 0.0
    if cut > lo:
        total += adaptive_gauss_kronrod(f, lo, cut, breakpoints=breakpoints, **tol)

    def mapped(u: np.ndarray) -> np.ndarray:
        r = 1.0 / u
        return f(r) * r * r

    return total + adaptive_gauss_kronrod(mapped, 0.0, 1.0 / cut, **tol)


def uncut_density(p: HSParams, rows: Sequence[str | float]) -> Callable[[np.ndarray], np.ndarray]:
    """Stacked radial densities of the uncut bubble in scaled coordinates.

    The densities of ``hslab.boundary_energy._profile_pack`` with the cutoff
    identically 1: dens(t) for t = |y| has one leading entry per row,
    "grad" |d/dt U1|**2, "mass" U1**q * t**(-s), "l2" U1**2 and a number q'
    U1**q', where U1(t) = (1 + t**(2-s))**kappa, kappa = (2-N)/(2-s).
    """
    n, s = p.N, p.s
    kappa = (2.0 - n) / (2.0 - s)
    q = p.two_star

    def dens(t: np.ndarray) -> np.ndarray:
        x = 1.0 + t ** (2.0 - s)
        u = x**kappa
        du = (2.0 - n) * t ** (1.0 - s) * x ** (kappa - 1.0)
        out = np.empty((len(rows), *t.shape))
        for v, row in zip(out, rows):
            if row == "grad":
                np.square(du, out=v)
            elif row == "mass":
                np.multiply(u**q, t ** (-s), out=v)
            elif row == "l2":
                np.square(u, out=v)
            else:
                np.power(u, row, out=v)
        return out

    return dens


def fit_power_log_basis(
    eps_values: Sequence[float], values: Sequence[float], power: float
) -> tuple[float, float]:
    """Least-squares fit  value = c1 * eps**power * ln(1/eps) + c2 * eps**power.

    Returns (c1, c2).  This is the two-basis form of the dimension-three
    gradient-energy deficit, where the leading coefficient of the plain
    power law is replaced by a logarithmically growing factor.
    """
    e, v = _as_positive_arrays(eps_values, values)
    base = e**power
    design = np.stack([base * np.log(1.0 / e), base], axis=1)
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coef[0]), float(coef[1])


def _pure_sliver(row: str, eps: float, geom: BoundaryGeometry, p: HSParams,
                 rel_tol: float) -> float:
    """Sliver integral of one row of the uncut bubble at scale eps.

    The sliver of ``hslab.boundary_energy._slivers`` with no cutoff: the
    radial integral runs over (0, inf), its tail map u = 1/rho starting
    past the last curvature node's knee 1 / (tau |gamma|).  There the
    singularities of the isotropic sliver in gamma reach gamma = 0, so a
    floor that changes sign is only approximated.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    check_dimension(geom, p)
    tau = eps ** (1.0 / (2.0 - p.s))
    gammas, weights = _curvature_rule(tuple(sorted(geom.curvatures)))
    keep = gammas != 0.0  # no sliver under a flat direction
    if not keep.any():
        return 0.0
    gammas, weights = gammas[keep], weights[keep]
    n = p.N
    dens = uncut_density(p, (row,))
    omega = sphere_surface_area(n - 1)

    def integrand(rho: np.ndarray) -> np.ndarray:
        radial = omega * rho ** (n - 2.0)
        return np.concatenate([
            np.sign(g) * radial * (_inner_stack(dens, rho, tau * abs(g) * rho) * rho)
            for g in gammas
        ])

    knee = (1.0 / (tau * np.abs(gammas))).max()
    split = 20.0 if knee <= 10.0 else min(8.0 * knee, 1e12)
    value = integrate_improper(integrand, lo=0.0, split=split, rel_tol=rel_tol,
                               breakpoints=_POWER_SEEDS)
    return float((weights @ value.reshape(len(gammas), 1))[0])


def sliver_energy_integral(
    eps: float,
    geom: BoundaryGeometry,
    p: HSParams,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Gradient energy of the pure bubble over the boundary-layer sliver.

    In concentration coordinates this is the integral of
    (N-2)**2 |y|**(2-2s) (1+|y|**(2-s))**(-2(N-s)/(2-s)) over the region
    between the flat floor y_N = 0 and the scaled quadratic floor
    y_N = eps**(1/(2-s)) * g(y').  It scales like eps**(1/(2-s)) for N >= 4
    and like eps**(1/(2-s)) * |ln eps| in dimension three, and vanishes
    identically for a flat patch.
    """
    return _pure_sliver("grad", eps, geom, p, rel_tol)


def sliver_mass_integral(
    eps: float,
    geom: BoundaryGeometry,
    p: HSParams,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Weighted critical mass of the pure bubble over the same sliver region.

    Integrand |y|**(-s) (1+|y|**(2-s))**(-2(N-s)/(2-s)); scales like
    eps**(1/(2-s)) in every dimension N >= 3.
    """
    return _pure_sliver("mass", eps, geom, p, rel_tol)


def negative_lambda_sanity(cfg: ProblemConfig, c_samples: Sequence[float]) -> bool:
    """True iff energy(constant c) < 0 for every sampled c > 0 (lambda <= 0).

    With lambda <= 0 both energy terms of a positive constant are
    nonpositive and the mass term is strictly negative, so constants are
    never near-solutions; this op verifies that numerically.
    """
    if cfg.lam > 0.0:
        raise PositiveLambda("sanity check applies to lambda <= 0 only")
    samples = [float(c) for c in c_samples]
    if not samples or any(c <= 0.0 for c in samples):
        raise ValueError("c_samples must be positive reals")
    return all(
        energy(np.full(cfg.grid.shape, c), cfg) < 0.0 for c in samples
    )


@dataclass(frozen=True)
class MarginReport:
    """Peak-versus-threshold audit along a list of concentration scales.

    ``rows`` are sorted by descending eps.  ``margin`` is threshold - peak
    (positive means the ray maximum sits strictly below the compactness
    threshold); it shrinks like eps**(1/(2-s)), so ``scaled_margin`` divides
    it by that concentration scale.  ``strict_margin`` says every listed
    margin is positive; ``scaled_margin_increasing`` says the scaled margins
    strictly increase as eps decreases (the coherent monotone statement --
    the absolute margin tends to zero by design).
    """

    threshold: float
    rows: tuple[MarginRow, ...]
    strict_margin: bool
    scaled_margin_increasing: bool


def threshold_inequality_check(
    eps_list: Sequence[float],
    geom: BoundaryGeometry,
    cut: CutoffSpec,
    far_sites: Sequence[tuple[float, float]],
    lam: float,
    p: HSParams,
    rel_tol: float = DEFAULT_REL_TOL,
) -> MarginReport:
    """Audit the mountain-pass ray against the boundary compactness threshold.

    For each eps the full energy breakdown is computed, the ray maximum is
    taken, and the margin threshold - peak is reported (threshold = the
    level of a boundary site, theta = 1/2, for the concentration exponent).
    With positive mean curvature the margin is positive for small eps but
    decays like eps**(1/(2-s)); the scaled margin margin/eps**(1/(2-s))
    increases toward a positive limit as eps decreases, and that
    monotonicity is what ``scaled_margin_increasing`` certifies.  A flat
    patch never produces strictly positive margins (the report then carries
    ``strict_margin=False``).
    """
    eps_sorted = sorted((float(e) for e in eps_list), reverse=True)
    if not eps_sorted:
        raise ValueError("eps_list must be nonempty")
    threshold = boundary_threshold(p, rel_tol)
    rows = tuple(
        margin_row(bubble_energies(eps, geom, cut, far_sites, p, rel_tol), lam, p, threshold)
        for eps in eps_sorted
    )
    scaled = [r.scaled_margin for r in rows]
    return MarginReport(
        threshold=threshold,
        rows=rows,
        strict_margin=all(r.margin > 0.0 for r in rows),
        scaled_margin_increasing=all(b > a for a, b in zip(scaled[:-1], scaled[1:])),
    )


def bubble_field(grid: DomainGrid, location: Sequence[float], eps: float,
                 s: float) -> np.ndarray:
    """Radial bubble profile of exponent ``s`` and scale ``eps`` centred at
    ``location``, at every node of ``grid``."""
    axes = np.meshgrid(*(grid.axis_nodes(k) for k in range(grid.N)), indexing="ij")
    r = np.sqrt(sum((x - float(c)) ** 2 for x, c in zip(axes, location)))
    return bubble_radial(r, eps, HSParams(grid.N, s))
