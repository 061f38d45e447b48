"""Integral identities and compactness thresholds.

Three families of exact relations are exposed here, each with a quadrature
route and (where one exists) a closed-form route so the two can be played
off against each other:

* a one-step recurrence between moments of the bubble profile, valid for
  2 <= beta <= 2(N-s) - 1:

      int r^(beta-s) W dr = (beta-1)/(2N - beta - 1 - s) * int r^(beta-2) W dr,

  with W = (1 + r^(2-s))^(-2(N-s)/(2-s)), checked at a list of beta by
  ``beta_recurrence_checks`` from one stacked quadrature run;

* the vanishing-concentration limit of the boundary sliver mass/energy
  ratio, (N-3)/((N+1-s)(N-2)^2), together with the bubble moment ratio
  (N-s) * weighted_mass / ((N-2) * grad_energy) = (N-2)^(-2) and the
  strictly positive gap between the two;

* per-site energy levels below which minimising sequences stay compact:
  theta * (2-s)/(2(N-s)) * S^((N-s)/(2-s)), with S the best constant for
  the site's s and theta the share of a small ball around the site that
  lies in the domain (1 inside, 1/2 at a smooth boundary point, 1/4 and
  1/8 at an edge and a corner of a box), the overall threshold being the
  minimum over sites.

The ray peak max_t (A t^2/2 - sum_i B_i t^(q_i)/q_i), the number all of
the above is compared with, has one implementation here, ``ray_peak``: the
constant test path, the boundary bubble ray and the solver's Nehari
projection all call it.  From it, ``lambda_existence_bound`` gives the
largest coefficient for which the constant test path stays below a
threshold, for any mix of site exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .extremals import HSParams, whole_space_constants
from .quadrature import DEFAULT_REL_TOL, RadialPowerIntegrand, integrate_radial_powers

__all__ = [
    "EmptySiteList",
    "MomentRatio",
    "NonpositivePart",
    "OutOfRangeBeta",
    "RecurrenceCheck",
    "SingularitySite",
    "ThresholdReport",
    "beta_recurrence_check",
    "beta_recurrence_checks",
    "bubble_moment_ratio",
    "lambda_existence_bound",
    "ps_threshold",
    "ray_peak",
    "sliver_ratio_limit",
    "strict_gap",
]


class OutOfRangeBeta(ValueError):
    """beta outside [2, 2(N-s)-1], where the moment recurrence holds."""


class EmptySiteList(ValueError):
    """Thresholds need at least one singularity site."""


class NonpositivePart(ValueError):
    """A ray peak needs a positive mass: for a field, a positive part that is
    not identically zero."""


@dataclass(frozen=True)
class SingularitySite:
    """A singularity's exponent s and share theta in (0, 1]: the fraction of
    a small ball around it inside the domain (1 inside, 1/2 on a smooth
    boundary, 2**-k where k faces of a box meet).  Its level is theta times
    the interior level."""

    theta: float
    s: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not (0.0 < self.s < 2.0):
            raise ValueError("s must lie in (0, 2)")


@dataclass(frozen=True)
class ThresholdReport:
    """Per-site compactness levels and their minimum."""

    per_site: tuple[tuple[SingularitySite, float], ...]
    overall: float


class RecurrenceCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_diff: float


class MomentRatio(NamedTuple):
    closed: float
    quadrature: float


def beta_recurrence_checks(
    betas: Sequence[float], p: HSParams, rel_tol: float = DEFAULT_REL_TOL
) -> list[RecurrenceCheck]:
    """Both sides of the bubble moment recurrence at each beta of ``betas``.

    lhs = int r^(beta-s) W dr and
    rhs = (beta-1)/(2N-beta-1-s) * int r^(beta-2) W dr, both by quadrature.
    Every beta is range-checked first; then the 2*len(betas) moments are the
    members of one :func:`integrate_radial_powers` call, so the list takes
    one stacked tanh-sinh run.  A member's value does not depend on the
    members stacked with it, so each check is bit-identical to
    :func:`beta_recurrence_check` at its beta.

    Raises
    ------
    OutOfRangeBeta
        For the first beta outside [2, 2(N-s)-1], before any integrand is
        evaluated.
    ToleranceNotMet
        From the stacked run.
    """
    n, s = p.N, p.s
    hi = 2.0 * (n - s) - 1.0
    for beta in betas:
        if not (2.0 <= beta <= hi + 1e-12):
            raise OutOfRangeBeta(f"beta={beta} outside [2, {hi}]")
    b = p.profile_decay
    moments = integrate_radial_powers(
        [
            RadialPowerIntegrand(a, b, s)
            for beta in betas
            for a in (beta - s, beta - 2.0)
        ],
        rel_tol,
    )
    checks = []
    for beta, lhs, base in zip(betas, moments[::2], moments[1::2]):
        rhs = (beta - 1.0) / (2.0 * n - beta - 1.0 - s) * base
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        checks.append(RecurrenceCheck(lhs=lhs, rhs=rhs, rel_diff=rel))
    return checks


def beta_recurrence_check(
    beta: float, p: HSParams, rel_tol: float = DEFAULT_REL_TOL
) -> RecurrenceCheck:
    """The one-beta case of :func:`beta_recurrence_checks`."""
    return beta_recurrence_checks([beta], p, rel_tol)[0]


def sliver_ratio_limit(p: HSParams) -> float:
    """Vanishing-eps limit of the sliver mass over sliver energy ratio.

    Equals (N-3)/((N+1-s)(N-2)^2); zero in dimension three, where the
    energy sliver carries an extra logarithm instead of a clean power.
    """
    n, s = p.N, p.s
    return (n - 3.0) / ((n + 1.0 - s) * (n - 2.0) ** 2)


def bubble_moment_ratio(p: HSParams, rel_tol: float = DEFAULT_REL_TOL) -> MomentRatio:
    """(N-s) * weighted_mass / ((N-2) * grad_energy).

    Closed form (N-2)^(-2) (a beta = N+1-s instance of the moment
    recurrence), returned alongside the quadrature value.
    """
    n = p.N
    consts = whole_space_constants(p, rel_tol)
    quad = (n - p.s) * consts.weighted_mass / ((n - 2.0) * consts.grad_energy)
    return MomentRatio(closed=(n - 2.0) ** (-2.0), quadrature=quad)


def strict_gap(p: HSParams) -> float:
    """(N-2)^(-2) - sliver_ratio_limit; strictly positive for admissible (N, s)."""
    return (p.N - 2.0) ** (-2.0) - sliver_ratio_limit(p)


def _threshold_level(n: int, site: SingularitySite, rel_tol: float) -> float:
    p = HSParams(n, site.s)
    best = whole_space_constants(p, rel_tol).best_constant
    power = (n - site.s) / (2.0 - site.s)  # = q/(q-2) for the critical q
    return site.theta * (2.0 - site.s) / (2.0 * (n - site.s)) * best**power


def ps_threshold(
    n: int, sites: Sequence[SingularitySite], rel_tol: float = DEFAULT_REL_TOL
) -> ThresholdReport:
    """Palais-Smale compactness threshold for a configuration of sites.

    A site's level is theta * (2-s)/(2(N-s)) * S^((N-s)/(2-s)): the interior
    level scaled by the share theta of a neighbourhood that concentration
    can use there.  The overall threshold is the minimum over sites, hence
    non-increasing as sites are appended.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError("dimension must be an integer >= 3")
    sites = tuple(sites)
    if not sites:
        raise EmptySiteList("at least one singularity site is required")
    per = tuple((site, _threshold_level(n, site, rel_tol)) for site in sites)
    return ThresholdReport(per_site=per, overall=min(level for _, level in per))


def ray_peak(a: float, masses: Sequence[float], qs: Sequence[float]) -> tuple[float, float]:
    """Maximiser t > 0 and maximum of a t**2/2 - sum_i m_i t**q_i / q_i.

    The maximiser solves sum_i m_i t**(q_i - 2) = a over the terms with
    positive mass, in closed form when they share one exponent.  Raises
    ValueError when a or a mass is not finite (an overflowed mass would
    otherwise give the peak t = 0), NonpositivePart when no mass is positive
    and ValueError when a <= 0 (the ray has no positive peak).
    """
    if not (math.isfinite(a) and all(math.isfinite(m) for m in masses)):
        raise ValueError("ray inputs must be finite")
    terms = [(m, q) for m, q in zip(masses, qs) if m > 0.0]
    if not terms:
        raise NonpositivePart("no positive mass: the ray has no peak")
    if a <= 0.0:
        raise ValueError("nonpositive quadratic part: no positive ray peak")
    t = _power_sum_root([m for m, _ in terms], [q - 2.0 for _, q in terms], a)
    return t, 0.5 * a * t * t - sum(m * t**q / q for m, q in terms)


def _power_sum_root(coeffs: Sequence[float], powers: Sequence[float], target: float) -> float:
    """The t > 0 with sum_i c_i t**p_i = target, for positive c_i, p_i, target.

    Closed form (target / sum c_i)**(1/p) when every p_i agrees.  Otherwise
    Newton's method on the logarithm of both sides in x = ln t: the left
    side is then a log-sum-exp of lines with slopes p_i, increasing and
    convex, so Newton needs no bracket and decreases monotonically onto the
    root after its first step.
    """
    if all(abs(p - powers[0]) < 1e-12 for p in powers):
        return (target / sum(coeffs)) ** (1.0 / powers[0])
    logs = [math.log(c) for c in coeffs]
    goal = math.log(target)
    x = (goal - math.log(sum(coeffs))) * len(powers) / sum(powers)
    for _ in range(100):
        z = [lc + p * x for lc, p in zip(logs, powers)]
        top = max(z)
        e = [math.exp(v - top) for v in z]
        total = sum(e)
        step = (top + math.log(total) - goal) * total / sum(p * w for p, w in zip(powers, e))
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return math.exp(x)


def lambda_existence_bound(
    volume: float, masses: Sequence[float], qs: Sequence[float], threshold: float
) -> float:
    """Largest lam with the constant-path peak below ``threshold``.

    The constant path c -> lam*volume*c**2/2 - sum_i m_i c**q_i / q_i (m_i
    the singular weight mass of site i over the domain, q_i its critical
    exponent) peaks where lam*volume = sum_i m_i c**(q_i - 2), at the value
    sum_i (1/2 - 1/q_i) m_i c**q_i.  That value increases with c, so the
    c whose peak meets ``threshold`` is the root of one monotone equation,
    and lam is read off the first.  Below the returned value the constant
    path peaks strictly under the threshold; no sharpness is claimed at or
    above it.  With one shared exponent q, doubling the total mass
    multiplies the bound by 2**(2/q).
    """
    if volume <= 0.0 or threshold <= 0.0 or not masses or len(masses) != len(qs):
        raise ValueError("need positive volume and threshold and one q per mass")
    if any(m <= 0.0 or q <= 2.0 for m, q in zip(masses, qs)):
        raise ValueError("every site needs mass m_i > 0 and exponent q_i > 2")
    c = _power_sum_root([(0.5 - 1.0 / q) * m for m, q in zip(masses, qs)], qs, threshold)
    return sum(m * c ** (q - 2.0) for m, q in zip(masses, qs)) / volume
