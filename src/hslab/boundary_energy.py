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
all rows in one pass.  When every principal curvature is equal the floor
depends on |y'| alone, and the slivers are one stacked adaptive radial
integral over 0 < |y'| < inf.  Otherwise they come from one walk of a
tensor Gauss-Legendre rule over the box |y'_i| <= 10, reduced to one
representative per permutation orbit of axes with equal curvature and to
the points inside the ball |y'| < 10 (the blend is 0 outside it), blended
smoothly (on 8 <= |y'| <= 10) into a stacked adaptive radial tail that
replaces the anisotropic floor by its exact spherical average (g averaged
over directions is (H / (2(N-1))) * |y'|**2, H the mean curvature).  The
radial integral's inner integral saturates instead of being linearised,
which keeps it integrable in every dimension, including the
logarithmically divergent linearisation in dimension three.  At each box
point, and at each radial node, the integral across the sliver runs over
w = y_N / |y'| from 0 to the floor's cap on fixed geometric panels: a
4-point Gauss-Legendre rule on the first panel [0, min(cap, 1/64)],
relative error about cap**8 * 2.3e-5, and K15 past it.

Scaling prefactors: the gradient energy and the critical mass at the
concentration site are scale-free, the plain L2 mass carries tau**2, and
the mass at a far singularity with exponent s_i carries tau**s_i together
with the distance proxy delta**(-s_i) (valid because the cutoff support
stays at least delta away from any site admitted at distance >= 3*delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .extremals import HSParams
from .identities import SingularitySite, ps_threshold, ray_peak
from .quadrature import (
    KRONROD15_NODES,
    KRONROD15_WEIGHTS,
    QuadratureSettings,
    RadialPowerIntegrand,
    adaptive_gauss_kronrod,
    integrate_improper,
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
    p: HSParams, tau: float, cut: CutoffSpec | None, rows: Sequence[str | float]
) -> Callable[[np.ndarray], np.ndarray]:
    """Stacked radial densities of the (optionally cutoff) bubble in scaled coordinates.

    Returns dens(t) for t = |y|, an array with one leading entry per row:
      "grad" : |d/dt u|**2       (squared radial derivative)
      "mass" : u**q * t**(-s)    with q the critical exponent
      "l2"   : u**2
      q'     : u**q'             for a number q'
    where u = eta~ * U1, U1(t) = (1 + t**(2-s))**kappa, kappa = (2-N)/(2-s),
    and eta~(t) = eta(tau * t) is the cutoff seen at scale tau (eta~ == 1
    when ``cut`` is None, giving the pure whole-profile densities).  Every
    row but grad is a power of u.  The powers t**(1-s), 1 + t**(2-s), U1
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
        if cut is not None and (ramp := tau * t > cut.delta).any():
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
_BOX_HALF_WIDTH = 10.0
_BLEND_LO = 8.0
_BLEND_HI = 10.0
# The box walk drops partial index tuples whose sum of squares reaches this
# bound: beyond _BLEND_HI the blend is 0, and the relative slack of 1e-12
# outweighs every rounding of the partial and the full sums, so no point with
# a nonzero blend is dropped.
_BALL_R2 = _BLEND_HI**2 * (1.0 + 1e-12)
_DEFAULT_BOX_NODES = {2: 96, 3: 56, 4: 28}
# The box walk generates the orbit representatives in chunks of at most
# _BOX_CHUNK points and sums each chunk on its own (the chunks set the
# rounding of the ledger); it evaluates the stacked densities in blocks of
# _STACK_BLOCK points, which bounds the (rows, points, panels, 15) array of
# the K15 panels where a cap passes 1/64.
_BOX_CHUNK = 1 << 14
_STACK_BLOCK = 1 << 12
# Initial panel edges of the radial GK integrals: the powers of two 1/64 ..
# 2**64, of which each integral keeps those strictly inside its range.
_POWER_SEEDS = [2.0**k for k in range(-6, 65)]


@lru_cache(maxsize=8)
def _gl_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights transplanted to [0, _BOX_HALF_WIDTH]."""
    x, w = np.polynomial.legendre.leggauss(count)
    half = 0.5 * _BOX_HALF_WIDTH
    return half * (x + 1.0), half * w


def _blend(rho: np.ndarray) -> np.ndarray:
    """1 out to the blend window, C^2 descent to 0 across [8, 10]."""
    t = np.clip((rho - _BLEND_LO) / (_BLEND_HI - _BLEND_LO), 0.0, 1.0)
    return _smooth_fall(t)


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
    Every box point of the shipped and benchmark eps has a cap below 1/64,
    so it takes 4 density evaluations instead of 15.  The hard stop at
    w = 128 truncates only integrands decaying at least like w**(3-2N), a
    relative error below 128**(3-2N).
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


def _orbit_chunks(
    box_nodes: int, alphas: tuple[float, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Orbit representatives of the orthant box rule, chunk by chunk.

    ``alphas`` are sorted curvatures.  Swapping two axes of equal curvature
    changes neither |y'| nor the floor, so within each run of equal
    curvatures only nondecreasing node-index tuples are generated, each
    standing for its g! / prod_v c_v! distinct permutations (g the run
    length, c_v the multiplicity of index v): the orbit reduction of a
    symmetric cubature rule (Stroud 1971).  The tuples are grown one axis at
    a time, depth first in groups, so they come in lexicographic order and
    no chunk exceeds _BOX_CHUNK points.  Only the points inside the blend
    ball are generated: a partial tuple whose sum of squares already reaches
    _BALL_R2 is dropped with all its extensions, since every one of them has
    blend 0 (with equal curvatures and the default box nodes this drops 55 %
    of the representatives at N = 4 and 72 % at N = 5), and chunks left
    empty are skipped.  Yields (y, weight) per chunk, weight the tensor
    Gauss-Legendre weight times the orbit size.  With distinct curvatures
    every orbit is one point and this is the full tensor rule restricted to
    the ball.
    """
    d = len(alphas)
    nodes, weights = _gl_nodes(box_nodes)
    squares = nodes * nodes
    tied = [False] + [alphas[j] == alphas[j - 1] for j in range(1, d)]
    perms = math.prod(math.factorial(len(list(run))) for _, run in groupby(alphas))
    group = max(1, _BOX_CHUNK // box_nodes)  # rows that grow into one chunk

    def grow(cols: list[np.ndarray], r2: np.ndarray) -> Iterator[list[np.ndarray]]:
        # cols holds one node-index array per axis filled so far, r2 the sum
        # of squares of those nodes; each row gains the next axis's indices
        # lo .. stop-1, lo its previous index within a run of equal
        # curvatures and 0 at the start of one, stop the first index that
        # takes the sum to _BALL_R2 (the nodes ascend)
        ax = len(cols)
        if ax == d:
            yield cols
            return
        for start in range(0, len(cols[0]), group):
            rows = [c[start : start + group] for c in cols]
            part = r2[start : start + group]
            lo = rows[-1] if tied[ax] else np.zeros(len(part), dtype=np.intp)
            counts = np.maximum(np.searchsorted(squares, _BALL_R2 - part) - lo, 0)
            parent = np.repeat(np.arange(len(lo)), counts)
            if parent.size:
                new = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
                yield from grow([c[parent] for c in rows] + [new], part[parent] + squares[new])

    for cols in grow([np.arange(box_nodes)], squares):
        y = np.empty((len(cols[0]), d))
        wt = np.ones(len(cols[0]))
        for ax in range(d - 1, -1, -1):
            y[:, ax] = nodes[cols[ax]]
            wt *= weights[cols[ax]]
        # prod_v c_v! is the product, over the axes, of the length of the
        # stretch of equal indices within a run that ends at that axis
        equal_run, repeats = 1, 1
        for j in range(1, d):
            equal_run = np.where(cols[j] == cols[j - 1], equal_run + 1, 1) if tied[j] else 1
            repeats = repeats * equal_run
        yield y, wt * (perms // repeats)


def _box_pass(
    dens: Callable, tau: float, geom: BoundaryGeometry, box_nodes: int
) -> np.ndarray | float:
    """Blend-weighted sliver integrals of every row over the box |y'_i| <= 10.

    Used only when the curvatures differ; equal curvatures take the radial
    integral alone (see ``_slivers``).  One walk over the orbit
    representatives of ``_orbit_chunks`` serves all rows (0.0 when no box
    point lies under a nonzero floor).  The box is the
    same along every axis, so sorting the curvatures changes nothing, and
    axes of equal curvature are permuted freely.  The integrand is even in
    every tangential coordinate (the floor height depends on squares only),
    so one orthant is integrated and scaled by 2**(N-1).  Floor heights keep
    their sign: where the quadratic floor dips below the flat one the sliver
    contributes negatively.
    """
    alphas = tuple(sorted(geom.curvatures))
    alpha_arr = np.asarray(alphas, dtype=float)
    total = 0.0
    for y, wt in _orbit_chunks(box_nodes, alphas):
        rho = np.sqrt(np.einsum("md,md->m", y, y))
        floor = tau * 0.5 * ((y * y) @ alpha_arr)
        psi = _blend(rho)
        keep = (psi > 0.0) & (floor != 0.0)
        if not np.any(keep):
            continue
        rk = rho[keep]
        fk = floor[keep]
        w_cap = np.abs(fk) / rk
        inner = np.concatenate([
            _inner_stack(dens, rk[j : j + _STACK_BLOCK], w_cap[j : j + _STACK_BLOCK])
            for j in range(0, rk.size, _STACK_BLOCK)
        ], axis=1) * rk * np.sign(fk)
        total = total + np.sum(wt[keep] * psi[keep] * inner, axis=1)
    return total * 2.0 ** len(alphas)


def _tail_part(
    dens: Callable,
    tau: float,
    geom: BoundaryGeometry,
    p: HSParams,
    cap: float | None,
    cfg: QuadratureSettings,
    lo: float = _BLEND_LO,
) -> np.ndarray | float:
    """Radial sliver of every row from |y'| = ``lo`` outward, one stacked GK.

    The anisotropic floor is replaced by its spherical average
    tau * gamma * |y'|**2 with gamma = H / (2(N-1)) -- exact when all
    curvatures coincide, and correct to leading order otherwise because the
    inner integral is linear in the floor height wherever the height is
    small and saturates (becoming direction-independent) wherever it is not.
    From ``lo`` = 8 (the default) the radial weight is 1 - blend, the part
    the box pass leaves; from ``lo`` = 0 it is 1 and this is the whole
    sliver of an isotropic wall.
    """
    n = p.N
    gamma = geom.mean_curvature / (2.0 * (n - 1.0))
    if gamma == 0.0:
        return 0.0
    sgn = math.copysign(1.0, gamma)
    g = abs(gamma)
    omega = sphere_surface_area(n - 1)

    def integrand(rho: np.ndarray) -> np.ndarray:
        inner = _inner_stack(dens, rho, tau * g * rho) * rho
        weight = 1.0 - _blend(rho) if lo else 1.0
        return sgn * omega * weight * rho ** (n - 2.0) * inner

    knee = 1.0 / (tau * g)  # where the inner integral saturates
    if cap is None:
        split = _BLEND_HI * 2.0 if knee <= _BLEND_HI else min(8.0 * knee, 1e12)
        return integrate_improper(
            integrand, lo=lo, split=split, cfg=cfg, breakpoints=_POWER_SEEDS
        )
    return adaptive_gauss_kronrod(
        integrand, lo, cap,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        max_subdivisions=cfg.max_subdivisions, breakpoints=[*_POWER_SEEDS, knee],
    )


def _resolve_box_nodes(p: HSParams, box_nodes: int | None) -> int:
    if box_nodes is not None:
        if box_nodes < 4:
            raise ValueError("box_nodes must be at least 4")
        return int(box_nodes)
    d = p.N - 1
    try:
        return _DEFAULT_BOX_NODES[d]
    except KeyError:
        raise ValueError(
            f"no default tensor resolution for {d} tangential axes; pass box_nodes"
        ) from None


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
    cut: CutoffSpec | None,
    rows: Sequence[str | float],
    geom: BoundaryGeometry,
    cfg: QuadratureSettings,
    cap: float | None,
    box_nodes: int,
) -> list[float]:
    """Sliver integral of every row.

    With all curvatures equal (alpha) the floor tau * alpha * |y'|**2 / 2 is
    its own spherical average, so the sliver is one stacked radial integral
    over (0, inf) and no box is walked: the box's blend and the tail's
    1 - blend add up to 1, and nothing is approximated.  Otherwise it is one
    fused box walk plus the stacked tail beyond |y'| = 8.
    """
    if all(a == 0.0 for a in geom.curvatures):
        return [0.0] * len(rows)
    dens = _profile_pack(p, tau, cut, rows)
    if len(set(geom.curvatures)) == 1:
        sliver = _tail_part(dens, tau, geom, p, cap, cfg, lo=0.0)
    else:
        sliver = _box_pass(dens, tau, geom, box_nodes) + _tail_part(dens, tau, geom, p, cap, cfg)
    return np.broadcast_to(sliver, len(rows)).tolist()


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
    *,
    box_nodes: int | None = None,
) -> EnergyBreakdown:
    """Direct quadrature of every energy piece over the curved model domain.

    ``far_sites`` lists (distance, s_i) pairs of additional singular sites;
    each must sit at distance >= 3*delta so the bound |x - x_i| >= delta
    holds on the cutoff support, and its mass is computed under that proxy
    weight delta**(-s_i).  Every entry (including the plain L2 mass and the
    far masses) is the half-space radial integral minus the corresponding
    sliver, i.e. an integral over the region above the quadratic floor.
    ``box_nodes`` sets the tensor box of the sliver when the curvatures
    differ (default 96, 56, 28 for N = 3, 4, 5); it is checked on every
    call, but equal curvatures take the radial sliver and never use it.

    Raises EpsTooLarge when tau = eps**(1/(2-s)) exceeds delta/10, where the
    concentration scale is no longer separated from the patch scale.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    check_dimension(geom, p)
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

    nodes = _resolve_box_nodes(p, box_nodes)
    cap = 2.0 * delta / tau
    kink = delta / tau
    # rows: grad, near mass, L2, then (eta~ * U1)**q_i for each far site's mass
    rows = ("grad", "mass", "l2", *(HSParams(p.N, si).two_star for _, si in sites))
    slivers = _slivers(p, tau, cut, rows, geom, cfg, cap, nodes)
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
