"""Energy ledger of a cutoff bubble concentrating at a curved boundary point.

The model domain is the region above a quadratic graph: near the origin the
boundary is x_N = g(x') = (1/2) * sum_i alpha_i * x_i'**2 exactly (alpha the
principal curvatures), and the test field is eta * U_eps, a radial bubble
profile under a C^2 radial cutoff eta (1 on the ball of radius delta, 0
outside radius 2*delta).  Everything is evaluated in concentration
coordinates y = x / tau with tau = eps**(1/(2-s)), where the domain floor
becomes y_N = tau * g(y') and each energy piece reduces to

    (half-space radial integral on [0, 2*delta/tau])
  - (sliver integral between y_N = 0 and y_N = tau * g(y')).

The ledger integrands (gradient, critical mass, plain L2 mass, one mass per
far site) are rows of one stacked radial density, and each piece handles
all rows in one pass.  In polar coordinates y' = rho * theta the floor is
tau * g(theta) * rho**2, so the sliver is the mean over directions of the
sliver of an isotropic floor.  That mean is a weighted sum over eight
Chebyshev nodes of g whose weights match the closed-form moments of g over
the sphere (one node, exact, when every principal curvature is equal), and
every row at every node is a row of one stacked adaptive radial integral
over 0 < |y'| < 2 delta / tau.  The inner integral saturates instead of
being linearised, which keeps it integrable in every dimension, including
the logarithmically divergent linearisation in dimension three.  At each
radial node the integral across the sliver runs over w = y_N / |y'| from 0
to the floor's cap on fixed geometric panels: a 4-point Gauss-Legendre rule
on the first panel [0, min(cap, 1/64)], relative error about
cap**8 * 2.3e-5, and K15 past it.

Scaling prefactors: the gradient energy and the critical mass at the
concentration site are scale-free, the plain L2 mass carries tau**2, and
the mass at a far singularity with exponent s_i carries tau**s_i together
with the distance proxy delta**(-s_i) (valid because the cutoff support
stays at least delta away from any site admitted at distance >= 3*delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .extremals import HSParams
from .identities import SingularitySite, ps_threshold, ray_peak
from .quadrature import (
    KRONROD15_NODES,
    KRONROD15_WEIGHTS,
    QuadratureSettings,
    RadialPowerIntegrand,
    adaptive_gauss_kronrod,
    integrate_radial_power,
    sphere_surface_area,
)

__all__ = [
    "BoundaryGeometry",
    "CutoffSpec",
    "EnergyBreakdown",
    "EpsTooLarge",
    "MarginRow",
    "RayPeak",
    "boundary_threshold",
    "bubble_energies",
    "check_dimension",
    "fit_log_slope",
    "margin_row",
    "ray_peak_energy",
    "sliver_energy_leading_coefficient",
    "sliver_mass_leading_coefficient",
]


class EpsTooLarge(ValueError):
    """Concentration scale too coarse for the cutoff patch (tau > delta/10)."""


# ---------------------------------------------------------------------------
# geometry, cutoff, result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryGeometry:
    """Quadratic boundary model: floor x_N = (1/2) * sum alpha_i x_i**2.

    ``curvatures`` are the principal curvatures (one per tangential axis,
    so their count must equal N-1 for the dimension in use) and ``delta``
    is the patch radius the cutoff lives on.  The mean curvature is always
    recomputed as the correctly rounded sum of the entries, which does not
    depend on their order.
    """

    curvatures: tuple[float, ...]
    delta: float

    def __post_init__(self) -> None:
        curv = tuple(float(a) for a in self.curvatures)
        object.__setattr__(self, "curvatures", curv)
        if not curv:
            raise ValueError("curvatures must be a nonempty tuple")
        if not all(math.isfinite(a) for a in curv):
            raise ValueError("curvatures must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be a positive real")

    @property
    def mean_curvature(self) -> float:
        return math.fsum(self.curvatures)


def _smooth_fall(t: np.ndarray) -> np.ndarray:
    """C^2 descent from 1 at t=0 to 0 at t=1: 1 - t**3 (10 - 15 t + 6 t**2)."""
    # clamped: near t = 1 it rounds to -1e-15, whose fractional powers are NaN
    return np.maximum(1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t), 0.0)


def _smooth_fall_slope(t: np.ndarray) -> np.ndarray:
    return -30.0 * t * t * (1.0 - t) ** 2


@dataclass(frozen=True)
class CutoffSpec:
    """Radial C^2 cutoff: 1 on [0, delta], polynomial descent, 0 beyond 2*delta."""

    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be a positive real")

    def value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        t = np.clip(r / self.delta - 1.0, 0.0, 1.0)
        return _smooth_fall(t)

    def slope(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        t = (r - self.delta) / self.delta
        inside = (t > 0.0) & (t < 1.0)
        return np.where(inside, _smooth_fall_slope(np.clip(t, 0.0, 1.0)) / self.delta, 0.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """All energy pieces of the cutoff bubble on the curved model domain.

    grad_energy   gradient energy of the cutoff bubble (scale-free piece;
                  tends to half the whole-space gradient energy).
    near_mass     critical mass at the concentration site, weight |x|**(-s)
                  (tends to half the whole-space weighted mass).
    far_masses    per far-site critical masses under the distance proxy
                  delta**(-s_i); they scale like eps**(s_i/(2-s)).
    l2_mass       plain squared mass, scaling like tau**2 times a radial
                  integral that may itself grow as the cutoff widens.
    sliver_energy, sliver_mass
                  the curvature corrections actually subtracted from
                  grad_energy and near_mass: integrals of the cutoff
                  integrands over the region between the flat floor and the
                  quadratic floor (both vanish identically for a flat patch).
    """

    eps: float
    grad_energy: float
    near_mass: float
    far_masses: tuple[float, ...]
    l2_mass: float
    sliver_energy: float
    sliver_mass: float

    def __post_init__(self) -> None:
        vals = [self.eps, self.grad_energy, self.near_mass, self.l2_mass,
                self.sliver_energy, self.sliver_mass, *self.far_masses]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all energy entries must be finite")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


class RayPeak(NamedTuple):
    scale: float
    value: float


class MarginRow(NamedTuple):
    eps: float
    peak: float
    margin: float
    scaled_margin: float


# ---------------------------------------------------------------------------
# radial profile densities (in concentration coordinates)
# ---------------------------------------------------------------------------


def _profile_pack(
    p: HSParams, tau: float, cut: CutoffSpec, rows: Sequence[str | float]
) -> Callable[[np.ndarray], np.ndarray]:
    """Stacked radial densities of the cutoff bubble in scaled coordinates.

    Returns dens(t) for t = |y|, an array with one leading entry per row:
      "grad" : |d/dt u|**2       (squared radial derivative)
      "mass" : u**q * t**(-s)    with q the critical exponent
      "l2"   : u**2
      q'     : u**q'             for a number q'
    where u = eta~ * U1, U1(t) = (1 + t**(2-s))**kappa, kappa = (2-N)/(2-s),
    and eta~(t) = eta(tau * t) is the cutoff seen at scale tau.  Every row
    but grad is a power of u.  The powers t**(1-s), 1 + t**(2-s), U1
    and U1' are computed once for all rows, and eta~ enters only where
    tau * t > delta (elsewhere it is exactly 1, its slope exactly 0).  A
    row's values do not depend on the other rows.
    """
    n, s = p.N, p.s
    kappa = (2.0 - n) / (2.0 - s)
    q = p.two_star

    def dens(t: np.ndarray) -> np.ndarray:
        x = 1.0 + t ** (2.0 - s)
        u = x**kappa
        du = (2.0 - n) * t ** (1.0 - s) * x ** (kappa - 1.0)
        if (ramp := tau * t > cut.delta).any():
            r = tau * t[ramp]
            eta = cut.value(r)
            du[ramp] = tau * cut.slope(r) * u[ramp] + eta * du[ramp]
            u[ramp] *= eta
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


# ---------------------------------------------------------------------------
# shared quadrature plumbing
# ---------------------------------------------------------------------------

_W_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-6.0, 8.0)])  # 0, 1/64 .. 128
# The 4-point Gauss-Legendre rule on [-1, 1], ascending, in closed form: nodes
# +-sqrt(3/7 -+ (2/7) sqrt(6/5)), weights (18 +- sqrt(30)) / 36.  It integrates
# the first w-panel [0, min(w_cap, 1/64)]; the panels past 1/64 keep K15.
_G4_INNER = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_G4_OUTER = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_G4_NODES = np.array([-_G4_OUTER, -_G4_INNER, _G4_INNER, _G4_OUTER])
_G4_WEIGHTS = np.array([18.0 - math.sqrt(30.0), 18.0 + math.sqrt(30.0),
                        18.0 + math.sqrt(30.0), 18.0 - math.sqrt(30.0)]) / 36.0
_CURVATURE_NODES = 8  # Chebyshev nodes of the curvature rule
# Initial panel edges of the radial GK integrals: the powers of two 1/64 ..
# 2**64, of which each integral keeps those strictly inside its range.
_POWER_SEEDS = [2.0**k for k in range(-6, 65)]


def _inner_stack(dens: Callable, rho: np.ndarray, w_cap: np.ndarray) -> np.ndarray:
    """integral over w in [0, w_cap] of dens(rho * sqrt(1 + w**2)), per row and point.

    Fixed geometric panel edges (0, 1/64, ..., 128) clipped to each point's
    cap keep the arrays rectangular; panels entirely beyond every cap are
    skipped.  The first panel [0, min(w_cap, 1/64)] takes the 4-point
    Gauss-Legendre rule and every later panel K15.  Away from the ends of
    the cutoff ramp the integrand is even in w and analytic on |w| < 1 (the
    profile is singular only where 1 + w**2 = 0 or |t| = 1 off the real
    axis), so on [0, c] the 4-point rule's relative error is about
    c**8 * 2.3e-5, below 1e-19 at c = 1/64; against K15 on finer panels it
    agrees to rounding, below 1e-14 relative over N = 3-5 and s = 0.2-1.9.
    A radius whose cap stays below 1/64 takes 4 density evaluations
    instead of 15.  The hard stop at w = 128 truncates only integrands
    decaying at least like w**(3-2N), a relative error below 128**(3-2N).
    """
    first = 0.5 * np.minimum(w_cap, _W_EDGES[1])  # half the first panel
    active = int(np.count_nonzero(_W_EDGES[1:-1] < w_cap.max()))  # K15 panels
    lo = np.minimum(_W_EDGES[1 : active + 1][None, :], w_cap[:, None])
    hi = np.minimum(_W_EDGES[2 : active + 2][None, :], w_cap[:, None])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    k15 = mid[:, :, None] + half[:, :, None] * KRONROD15_NODES
    # one density call: the 4 first-panel nodes, then 15 per K15 panel
    pts = np.concatenate([first[:, None] * (1.0 + _G4_NODES), k15.reshape(rho.size, -1)], axis=1)
    vals = dens(rho[:, None] * np.sqrt(1.0 + pts * pts))
    return (vals[..., :4] @ _G4_WEIGHTS * first
            + np.einsum("impk,k,mp->im", vals[..., 4:].reshape(*vals.shape[:2], active, 15),
                        KRONROD15_WEIGHTS, half))


def _direction_moments(b: np.ndarray, count: int) -> np.ndarray:
    """E[x**j] for j < count, x = sum_i b_i * theta_i**2, theta uniform on the
    unit sphere S^(d-1) with d = len(b).

    The squares theta_i**2 are Dirichlet(1/2, ..., 1/2) distributed, so
    E[x**j] = j! / (d/2)_j * [z**j] prod_i (1 - b_i z)**(-1/2), with (d/2)_j
    the rising factorial and (1/2)_j b_i**j / j! the coefficients of one
    factor's series.
    """
    j = np.arange(1, count)
    series = np.zeros(count)
    series[0] = 1.0
    for bi in b:
        factor = np.concatenate([[1.0], np.cumprod((j - 0.5) / j * bi)])
        series = np.convolve(series, factor)[:count]
    return series * np.concatenate([[1.0], np.cumprod(j / (0.5 * len(b) + j - 1.0))])


def _curvature_rule(alphas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes gamma_k and weights W_k with sum_k W_k F(gamma_k) the mean of
    F(g(theta)) over the unit sphere, g(theta) = (1/2) sum_i alpha_i theta_i**2.

    ``alphas`` are sorted, so g ranges over [lo, hi] = [alpha_1, alpha_d] / 2.
    The nodes are _CURVATURE_NODES Chebyshev points of that range, and the
    weights make the rule exact for every polynomial in g of lower degree:
    V^T W = m, V the Vandermonde matrix of the nodes mapped to [-1, 1] and m
    the direction moments of x = (2g - lo - hi) / (hi - lo).  Equal
    curvatures give one node, H / (2(N-1)), with weight 1.
    """
    lo, hi = 0.5 * alphas[0], 0.5 * alphas[-1]
    if lo == hi:
        return np.array([math.fsum(alphas) / (2.0 * len(alphas))]), np.ones(1)
    x = np.cos(np.pi * (np.arange(_CURVATURE_NODES) + 0.5) / _CURVATURE_NODES)
    moments = _direction_moments((np.asarray(alphas) - (lo + hi)) / (hi - lo), _CURVATURE_NODES)
    weights = np.linalg.solve(np.vander(x, increasing=True).T, moments)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, weights


def check_dimension(geom: BoundaryGeometry, p: HSParams) -> None:
    """Raise ValueError unless ``geom`` has one curvature per tangential axis
    of dimension p.N."""
    if len(geom.curvatures) != p.N - 1:
        raise ValueError(
            f"need {p.N - 1} principal curvatures for dimension {p.N}, "
            f"got {len(geom.curvatures)}"
        )


def _slivers(
    p: HSParams,
    tau: float,
    cut: CutoffSpec,
    rows: Sequence[str | float],
    geom: BoundaryGeometry,
    cfg: QuadratureSettings,
) -> list[float]:
    """Sliver integral of every row, from one stacked radial integral.

    In polar coordinates y' = rho * theta the floor is tau * g(theta) *
    rho**2, so the sliver is the mean over directions theta of F(g(theta)),
    F(gamma) the sliver of the isotropic floor tau * gamma * rho**2:
    omega_{N-2} times the integral over rho of rho**(N-1) times the inner
    integral across w = y_N / rho up to the cap tau * |gamma| * rho, with
    the sign of gamma (where the floor dips below the flat one the sliver
    counts negatively).  The inner integral saturates instead of being
    linearised, which keeps F integrable in every dimension, including the
    logarithmically divergent linearisation in dimension three.

    ``_curvature_rule`` takes the mean, and every row at every node is a row
    of one adaptive radial integral, each node's knee 1 / (tau |gamma|),
    where its inner integral saturates, an initial panel edge.  Equal
    curvatures give one node and the exact sliver.  The cutoff bounds rho by
    2 delta / tau, so F is smooth in gamma: the inner integrand is singular
    only at gamma = +-i / (tau rho), on the imaginary axis at least
    1 / (2 delta) from 0.  So the rule is accurate while the range of g is
    small against its distance from those points: against a converged
    direction rule the ledger rows agree to 1.5e-11 on walls with curvatures
    of order 1 (N = 3-5) and to 3.3e-9 for (50, 20, 50) at eps = 9e-3, but
    only to 4.7e-7 for (0, 30), 8.8e-5 for (-10, 20) and 3.3e-2 for
    (-50, 40) at N = 3, eps = 9e-3.
    """
    gammas, weights = _curvature_rule(tuple(sorted(geom.curvatures)))
    keep = gammas != 0.0  # no sliver under a flat direction
    if not keep.any():
        return [0.0] * len(rows)
    gammas, weights = gammas[keep], weights[keep]
    n = p.N
    dens = _profile_pack(p, tau, cut, rows)
    omega = sphere_surface_area(n - 1)
    signs, heights = np.sign(gammas), np.abs(gammas)
    knees = 1.0 / (tau * heights)

    def integrand(rho: np.ndarray) -> np.ndarray:
        radial = omega * rho ** (n - 2.0)
        return np.concatenate([
            sign * radial * (_inner_stack(dens, rho, tau * g * rho) * rho)
            for sign, g in zip(signs, heights)
        ])

    value = adaptive_gauss_kronrod(
        integrand, 0.0, 2.0 * cut.delta / tau,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        max_subdivisions=cfg.max_subdivisions, breakpoints=[*_POWER_SEEDS, *knees],
    )
    return (weights @ value.reshape(len(gammas), len(rows))).tolist()

# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def sliver_energy_leading_coefficient(
    geom: BoundaryGeometry, p: HSParams, cfg: QuadratureSettings | None = None
) -> float:
    """Limit of the uncut bubble's gradient-energy sliver over eps**(1/(2-s))
    as eps -> 0 (N >= 4).

    Equals H * (N-2)**2 / (2(N-1)) * omega_{N-2} * integral of
    r**(N+2-2s) (1+r**(2-s))**(-2(N-s)/(2-s)) dr.  In dimension three that
    radial moment diverges (the sliver energy carries an extra logarithm)
    and Divergent is raised.
    """
    check_dimension(geom, p)
    n, s = p.N, p.s
    b = p.profile_decay
    moment = integrate_radial_power(RadialPowerIntegrand(n + 2.0 - 2.0 * s, b, s), cfg)
    return (
        geom.mean_curvature * (n - 2.0) ** 2 / (2.0 * (n - 1.0))
        * sphere_surface_area(n - 1) * moment
    )


def sliver_mass_leading_coefficient(
    geom: BoundaryGeometry, p: HSParams, cfg: QuadratureSettings | None = None
) -> float:
    """Limit of the uncut bubble's weighted-mass sliver over eps**(1/(2-s)) as
    eps -> 0 (all N >= 3)."""
    check_dimension(geom, p)
    n, s = p.N, p.s
    b = p.profile_decay
    moment = integrate_radial_power(RadialPowerIntegrand(n - s, b, s), cfg)
    return geom.mean_curvature / (2.0 * (n - 1.0)) * sphere_surface_area(n - 1) * moment


def _half_space_radial(
    dens: Callable,
    n: int,
    cap: float,
    cfg: QuadratureSettings,
    kink: float,
) -> np.ndarray:
    """(1/2) * omega_{N-1} * integral over (0, cap) of dens(rho) * rho**(N-1), every row."""
    value = adaptive_gauss_kronrod(
        lambda rho: dens(rho) * rho ** (n - 1.0), 0.0, cap,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        max_subdivisions=cfg.max_subdivisions, breakpoints=[*_POWER_SEEDS, kink],
    )
    return 0.5 * sphere_surface_area(n) * value


def bubble_energies(
    eps: float,
    geom: BoundaryGeometry,
    cut: CutoffSpec,
    far_sites: Sequence[tuple[float, float]],
    p: HSParams,
    cfg: QuadratureSettings | None = None,
) -> EnergyBreakdown:
    """Direct quadrature of every energy piece over the curved model domain.

    ``far_sites`` lists (distance, s_i) pairs of additional singular sites;
    each must sit at distance >= 3*delta so the bound |x - x_i| >= delta
    holds on the cutoff support, and its mass is computed under that proxy
    weight delta**(-s_i).  Every entry (including the plain L2 mass and the
    far masses) is the half-space radial integral minus the corresponding
    sliver, i.e. an integral over the region above the quadratic floor; the
    slivers of every entry come from one stacked radial integral over the
    nodes of the curvature rule (see ``_slivers``).

    Raises ValueError outside N = 3-5, the dimensions the ledger is tested
    in, and EpsTooLarge when tau = eps**(1/(2-s)) exceeds delta/10, where
    the concentration scale is no longer separated from the patch scale.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    check_dimension(geom, p)
    if p.N > 5:
        raise ValueError(f"the boundary ledger is tested for N = 3-5 only, got N = {p.N}")
    if not math.isclose(cut.delta, geom.delta, rel_tol=1e-12):
        raise ValueError("cutoff radius and geometry patch radius must agree")
    cfg = cfg or QuadratureSettings()
    delta = geom.delta
    tau = eps ** (1.0 / (2.0 - p.s))
    if tau > delta / 10.0:
        raise EpsTooLarge(
            f"eps**(1/(2-s)) = {tau:.3e} exceeds delta/10 = {delta / 10.0:.3e}"
        )
    sites = [(float(d), float(si)) for d, si in far_sites]
    for dist, si in sites:
        if dist < 3.0 * delta - 1e-12 * delta:
            raise ValueError(f"far site at distance {dist} closer than 3*delta")
        if not (0.0 < si < 2.0):
            raise ValueError("far-site exponent must lie in (0, 2)")

    cap = 2.0 * delta / tau
    kink = delta / tau
    # rows: grad, near mass, L2, then (eta~ * U1)**q_i for each far site's mass
    rows = ("grad", "mass", "l2", *(HSParams(p.N, si).two_star for _, si in sites))
    slivers = _slivers(p, tau, cut, rows, geom, cfg)
    half_space = _half_space_radial(_profile_pack(p, tau, cut, rows), p.N, cap, cfg, kink)
    whole = (half_space - slivers).tolist()
    return EnergyBreakdown(
        eps=eps,
        grad_energy=whole[0],
        near_mass=whole[1],
        far_masses=tuple(
            tau**si * delta ** (-si) * value for (_, si), value in zip(sites, whole[3:])
        ),
        l2_mass=tau**2 * whole[2],
        sliver_energy=slivers[0],
        sliver_mass=slivers[1],
    )


def ray_peak_energy(b: EnergyBreakdown, lam: float, p: HSParams) -> RayPeak:
    """Maximum of the energy along the ray t -> t * (cutoff bubble).

    The ray energy is taken as (1/2) A t**2 - (1/q) B t**q with A =
    grad_energy + lam * l2_mass, B = near_mass + sum(far_masses) and q the
    critical exponent 2(N-s)/(N-2) of the concentration site, so the peak
    is ``ray_peak(A, [B], [q])``.  Every far mass is counted under that q,
    although a far site with exponent s_i enters the ray energy as
    m_i t**q_i / q_i with q_i = 2(N-s_i)/(N-2).  Where the ray scale
    exceeds 1 and a far exponent lies below s, this overstates the peak: by
    0.17-22 % on the boundary-sweep benchmark's inputs (N = 4 and 5, s = 1,
    far exponents 0.5 and 0.9).  Raises NonpositivePart when B <= 0 and
    ValueError when A <= 0.
    """
    a = b.grad_energy + lam * b.l2_mass
    return RayPeak(*ray_peak(a, [b.near_mass + sum(b.far_masses)], [p.two_star]))


def boundary_threshold(p: HSParams, cfg: QuadratureSettings | None = None) -> float:
    """Level of a boundary site (theta = 1/2) with the concentration exponent."""
    return ps_threshold(p.N, [SingularitySite(0.5, p.s)], cfg).overall


def margin_row(b: EnergyBreakdown, lam: float, p: HSParams, threshold: float) -> MarginRow:
    """Ray peak of one breakdown, its margin threshold - peak, and that
    margin over the concentration scale eps**(1/(2-s))."""
    peak = ray_peak_energy(b, lam, p).value
    margin = threshold - peak
    return MarginRow(eps=b.eps, peak=peak, margin=margin,
                     scaled_margin=margin / b.eps ** (1.0 / (2.0 - p.s)))


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def _as_positive_arrays(eps_values, values) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(list(eps_values), dtype=float)
    v = np.asarray(list(values), dtype=float)
    if e.shape != v.shape or e.ndim != 1 or e.size < 2:
        raise ValueError("need two equal-length 1-D samples with at least 2 points")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v)) and np.all(e > 0.0)):
        raise ValueError("samples must be finite with positive eps")
    return e, v


def fit_log_slope(eps_values: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of ln(value) against ln(eps); values must be positive."""
    e, v = _as_positive_arrays(eps_values, values)
    if not np.all(v > 0.0):
        raise ValueError("log-log fit needs positive values")
    x = np.log(e)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(v), rcond=None)
    return float(coef[0])
